package relation

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is an in-memory instance D of a schema R: an ordered bag of
// tuples. It is the unit of storage at every site of the simulated
// distributed system. A Relation additionally caches a lazily built
// columnar dictionary-encoded view (see Encoded); the cache is
// invalidated by every mutation, so concurrent readers are safe but
// mutation must not race with reads.
type Relation struct {
	schema *Schema
	tuples []Tuple
	// lazy, when non-nil, marks a relation whose rows exist only as the
	// cached encoded view's columns: tuple materialization is deferred
	// until something actually asks for []Tuple form. Extracts on the
	// serving path (ProjectRows, a Merge window, the columnar wire
	// receive) are consumed almost entirely in ID space, so for them the
	// O(rows·arity) string-tuple build is pure waste. Single-row access
	// (Tuple) decodes just that row; Tuples and every mutation
	// materialize the full slice first.
	lazy *lazyTuples
	enc  atomic.Pointer[Encoded]
	// packed, when non-nil, is the packed chunk payload that stores the
	// relation's rows and that it ships in. See packed.go; mutation
	// detaches it alongside the encoded view.
	packed atomic.Pointer[packedState]
	// counted, when non-nil, is the count column SetCounts gave r
	// (counted.go).
	counted *counted
}

// lazyTuples carries the deferred state: the row count (the encoded
// view knows it too, but Len must not chase pointers) and the once that
// guards the build, making concurrent readers safe.
type lazyTuples struct {
	rows int
	once sync.Once
}

// materialize builds r.tuples from the encoded view's columns. It is
// the only writer of r.tuples on a lazy relation, serialized by the
// once; every reader of the field goes through it first.
func (r *Relation) materialize() {
	if r.lazy == nil {
		return
	}
	r.lazy.once.Do(func() {
		if sp := r.sectionPayload(); sp != nil && sp.InRows() {
			r.tuples = sp.Tuples()
			return
		}
		e := r.enc.Load()
		arity := r.schema.Arity()
		rows := r.lazy.rows
		flat := make([]string, rows*arity)
		for j := 0; j < arity; j++ {
			col, dict := e.Column(j)
			for i, id := range col {
				flat[i*arity+j] = dict.Val(id)
			}
		}
		ts := make([]Tuple, rows)
		for i := range ts {
			ts[i] = flat[i*arity : (i+1)*arity : (i+1)*arity]
		}
		r.tuples = ts
	})
}

// materializeForWrite materializes and drops the lazy marker; every
// mutating method calls it first so Len and the mutation itself see an
// ordinary tuple-backed relation. Mutation already must not race with
// reads, so clearing the marker needs no synchronization.
func (r *Relation) materializeForWrite() {
	if r.counted != nil || r.countedPayload() != nil {
		panic("relation: mutating a counted relation")
	}
	r.materialize()
	r.lazy = nil
}

// lazyTuple decodes row i alone from the encoded columns. Callers on
// the detection path touch only violating rows and group
// representatives, so per-call allocation beats materializing the
// whole block.
func (r *Relation) lazyTuple(i int) Tuple {
	e := r.enc.Load()
	t := make(Tuple, r.schema.Arity())
	for j := range t {
		col, dict := e.Column(j)
		t[j] = dict.Val(col[i])
	}
	return t
}

// New creates an empty relation over schema s.
func New(s *Schema) *Relation {
	return &Relation{schema: s}
}

// NewWithCapacity creates an empty relation with preallocated capacity.
func NewWithCapacity(s *Schema, n int) *Relation {
	return &Relation{schema: s, tuples: make([]Tuple, 0, n)}
}

// FromTuples builds a relation from existing tuples (not copied).
// Every tuple must match the schema arity.
func FromTuples(s *Schema, ts []Tuple) (*Relation, error) {
	for i, t := range ts {
		if len(t) != s.Arity() {
			return nil, fmt.Errorf("relation: tuple %d has arity %d, schema %s wants %d", i, len(t), s.Name(), s.Arity())
		}
	}
	return &Relation{schema: s, tuples: ts}, nil
}

// MustFromRows builds a relation from row literals, panicking on arity
// mismatch; intended for tests and examples.
func MustFromRows(s *Schema, rows ...[]string) *Relation {
	r := NewWithCapacity(s, len(rows))
	for _, row := range rows {
		if err := r.Append(Tuple(row)); err != nil {
			panic(err)
		}
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.lazy != nil {
		return r.lazy.rows
	}
	return len(r.tuples)
}

// Tuple returns the i-th tuple. The caller must not modify it. On a
// lazy relation each call decodes a fresh tuple, so callers needing
// the full set should use Tuples.
func (r *Relation) Tuple(i int) Tuple {
	if r.lazy != nil {
		return r.lazyTuple(i)
	}
	return r.tuples[i]
}

// Tuples returns the underlying tuple slice, materializing it first on
// a lazy relation. The caller must not modify it.
func (r *Relation) Tuples() []Tuple {
	r.materialize()
	return r.tuples
}

// Append adds a tuple, validating arity.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s arity %d", len(t), r.schema.Name(), r.schema.Arity())
	}
	r.materializeForWrite()
	r.tuples = append(r.tuples, t)
	r.invalidateEncoding()
	return nil
}

// MustAppend adds a tuple and panics on arity mismatch.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// AppendAll adds all tuples from o, which must share r's arity.
func (r *Relation) AppendAll(o *Relation) error {
	if o.schema.Arity() != r.schema.Arity() {
		return fmt.Errorf("relation: cannot append %s (arity %d) to %s (arity %d)",
			o.schema.Name(), o.schema.Arity(), r.schema.Name(), r.schema.Arity())
	}
	r.materializeForWrite()
	r.tuples = append(r.tuples, o.Tuples()...)
	r.invalidateEncoding()
	return nil
}

// Clone returns a deep copy (tuples copied too).
func (r *Relation) Clone() *Relation {
	out := NewWithCapacity(r.schema, r.Len())
	for _, t := range r.Tuples() {
		out.tuples = append(out.tuples, t.Clone())
	}
	return out
}

// Select returns a new relation with the tuples satisfying pred.
// Tuples are shared, not copied.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := New(r.schema)
	for _, t := range r.Tuples() {
		if pred(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// Project returns the projection of r onto attrs, preserving duplicates
// and input order. The result schema is named name.
func (r *Relation) Project(name string, attrs []string) (*Relation, error) {
	idx, err := r.schema.Indices(attrs)
	if err != nil {
		return nil, err
	}
	ps, err := r.schema.Project(name, attrs)
	if err != nil {
		return nil, err
	}
	out := NewWithCapacity(ps, r.Len())
	for _, t := range r.Tuples() {
		out.tuples = append(out.tuples, t.Project(idx))
	}
	return out, nil
}

// DistinctProject is Project with duplicate elimination; first
// occurrence order is preserved.
func (r *Relation) DistinctProject(name string, attrs []string) (*Relation, error) {
	idx, err := r.schema.Indices(attrs)
	if err != nil {
		return nil, err
	}
	ps, err := r.schema.Project(name, attrs)
	if err != nil {
		return nil, err
	}
	out := New(ps)
	seen := make(map[string]struct{}, r.Len())
	for _, t := range r.Tuples() {
		k := t.Key(idx)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.tuples = append(out.tuples, t.Project(idx))
	}
	return out, nil
}

// SortBy sorts tuples in place, lexicographically by the given
// attributes; tuples equal on them keep their order.
func (r *Relation) SortBy(attrs ...string) error {
	idx, err := r.schema.Indices(attrs)
	if err != nil {
		return err
	}
	r.materializeForWrite()
	cmp := func(a, b Tuple) int { return compareOn(idx, a, b) }
	if namesAll(idx, r.schema.Arity()) {
		// Ties are identical tuples: any order of them is the stable one.
		slices.SortFunc(r.tuples, cmp)
	} else {
		slices.SortStableFunc(r.tuples, cmp)
	}
	r.invalidateEncoding()
	return nil
}

// namesAll reports whether idx names every position below arity.
func namesAll(idx []int, arity int) bool {
	for j := range arity {
		if !slices.Contains(idx, j) {
			return false
		}
	}
	return true
}

// MergeSorted returns a fresh relation over r's schema holding r's
// tuples without drop's, merged with add's: what SortBy(attrs...) would
// order, built in one linear pass because r, add and drop (either may
// be nil) are each sorted that way already. Tuples are compared on attrs
// alone: an add tuple equal to one r keeps appears once, and a drop
// tuple r lacks is ignored. The inputs are not changed; tuples are
// shared, not copied.
func (r *Relation) MergeSorted(add, drop *Relation, attrs ...string) (*Relation, error) {
	idx, err := r.schema.Indices(attrs)
	if err != nil {
		return nil, err
	}
	var other [2][]Tuple
	for k, o := range []*Relation{add, drop} {
		if o == nil {
			continue
		}
		if o.schema.Arity() != r.schema.Arity() {
			return nil, fmt.Errorf("relation: cannot merge %s (arity %d) with %s (arity %d)",
				o.schema.Name(), o.schema.Arity(), r.schema.Name(), r.schema.Arity())
		}
		other[k] = o.Tuples()
	}
	a, b, d := r.Tuples(), other[0], other[1]
	out := make([]Tuple, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(a) > 0 {
			for len(d) > 0 && compareOn(idx, d[0], a[0]) < 0 {
				d = d[1:]
			}
			if len(d) > 0 && compareOn(idx, d[0], a[0]) == 0 {
				a, d = a[1:], d[1:]
				continue
			}
		}
		c := 1
		if len(b) == 0 {
			c = -1
		} else if len(a) > 0 {
			c = compareOn(idx, a[0], b[0])
		}
		switch {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return &Relation{schema: r.schema, tuples: out}, nil
}

// compareOn orders two tuples lexicographically by the columns idx, as
// SortBy does.
func compareOn(idx []int, a, b Tuple) int {
	for _, j := range idx {
		if c := strings.Compare(a[j], b[j]); c != 0 {
			return c
		}
	}
	return 0
}

// SameTuples reports whether r and o contain the same multiset of tuples,
// ignoring order — a counted relation's row i counted counts[i] times.
// Schemas must have equal arity; attribute names are not compared.
func (r *Relation) SameTuples(o *Relation) bool {
	if r.BagLen() != o.BagLen() {
		return false
	}
	counts := make(map[string]int, r.Len())
	for i, t := range r.Tuples() {
		counts[t.canon()] += r.count(i)
	}
	for i, t := range o.Tuples() {
		k := t.canon()
		counts[k] -= o.count(i)
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// count returns the tuples row i stands for: 1 in a plain relation.
func (r *Relation) count(i int) int {
	if cs := r.Counts(); cs != nil {
		return int(cs[i])
	}
	return 1
}

// String renders the relation as a small table; intended for examples
// and debugging, not bulk output.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.schema.String())
	b.WriteByte('\n')
	for _, t := range r.Tuples() {
		b.WriteString("  ")
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
