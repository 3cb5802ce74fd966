// Package partition implements the fragmentation model of Section II-B:
// horizontal partitions Di = σFi(D) (disjoint, complete, same schema)
// and vertical partitions Di = πXi(D) (key-carrying, attribute-covering),
// with verification and reconstruction.
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"distcfd/internal/engine"
	"distcfd/internal/relation"
)

// Horizontal is a horizontal partition (D1, …, Dn) of a relation D.
// Fragment i is intended to reside at site Si. Predicates[i] is the
// fragment predicate Fi when known; the always-true predicate means
// "unknown" and disables the Fi ∧ Fφ pruning of Section IV-A for that
// fragment.
type Horizontal struct {
	Schema     *relation.Schema
	Fragments  []*relation.Relation
	Predicates []relation.Predicate
}

// N returns the number of fragments.
func (h *Horizontal) N() int { return len(h.Fragments) }

// Reconstruct returns ∪ᵢ Dᵢ.
func (h *Horizontal) Reconstruct() (*relation.Relation, error) {
	return engine.Union(h.Schema.Name(), h.Fragments...)
}

// Verify checks the Section II-B invariants against the original
// relation: fragments share the schema, are pairwise disjoint (on the
// key when one is declared, else on whole tuples), and their union is
// exactly D.
func (h *Horizontal) Verify(original *relation.Relation) error {
	if len(h.Fragments) == 0 {
		return fmt.Errorf("partition: no fragments")
	}
	for i, f := range h.Fragments {
		if f.Schema().Arity() != h.Schema.Arity() {
			return fmt.Errorf("partition: fragment %d arity %d differs from schema", i, f.Schema().Arity())
		}
	}
	keyAttrs := h.Schema.Key()
	var keyIdx []int
	if len(keyAttrs) > 0 {
		var err error
		keyIdx, err = h.Schema.Indices(keyAttrs)
		if err != nil {
			return err
		}
	}
	seen := map[string]int{}
	for i, f := range h.Fragments {
		for _, t := range f.Tuples() {
			var k string
			if keyIdx != nil {
				k = t.Key(keyIdx)
			} else {
				k = t.Key(allIdx(h.Schema.Arity()))
			}
			if prev, dup := seen[k]; dup {
				return fmt.Errorf("partition: tuple %v appears in fragments %d and %d", t, prev, i)
			}
			seen[k] = i
		}
	}
	union, err := h.Reconstruct()
	if err != nil {
		return err
	}
	if !union.SameTuples(original) {
		return fmt.Errorf("partition: union of fragments differs from original (%d vs %d tuples)",
			union.Len(), original.Len())
	}
	if len(h.Predicates) > 0 {
		if len(h.Predicates) != len(h.Fragments) {
			return fmt.Errorf("partition: %d predicates for %d fragments", len(h.Predicates), len(h.Fragments))
		}
		for i, f := range h.Fragments {
			for _, t := range f.Tuples() {
				if !h.Predicates[i].Eval(h.Schema, t) {
					return fmt.Errorf("partition: tuple %v in fragment %d does not satisfy F%d = %v", t, i, i, h.Predicates[i])
				}
			}
		}
	}
	return nil
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ByPredicates partitions d using the given fragment predicates.
// Every tuple must satisfy exactly one predicate; anything else is an
// error, enforcing the disjointness/completeness requirements.
func ByPredicates(d *relation.Relation, preds []relation.Predicate) (*Horizontal, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("partition: no predicates")
	}
	frags := make([]*relation.Relation, len(preds))
	for i := range frags {
		frags[i] = relation.New(d.Schema())
	}
	for _, t := range d.Tuples() {
		target := -1
		for i, p := range preds {
			if p.Eval(d.Schema(), t) {
				if target >= 0 {
					return nil, fmt.Errorf("partition: tuple %v satisfies both F%d and F%d", t, target, i)
				}
				target = i
			}
		}
		if target < 0 {
			return nil, fmt.Errorf("partition: tuple %v satisfies no fragment predicate", t)
		}
		frags[target].MustAppend(t)
	}
	return &Horizontal{Schema: d.Schema(), Fragments: frags, Predicates: preds}, nil
}

// ByAttribute partitions d into one fragment per distinct value of
// attr, with predicates attr = v; the Fig. 1(b) style of partitioning
// (EMP grouped by title).
func ByAttribute(d *relation.Relation, attr string) (*Horizontal, error) {
	idx, err := d.Schema().Indices([]string{attr})
	if err != nil {
		return nil, err
	}
	byVal := map[string]*relation.Relation{}
	var vals []string
	for _, t := range d.Tuples() {
		v := t[idx[0]]
		if byVal[v] == nil {
			byVal[v] = relation.New(d.Schema())
			vals = append(vals, v)
		}
		byVal[v].MustAppend(t)
	}
	sort.Strings(vals)
	h := &Horizontal{Schema: d.Schema()}
	for _, v := range vals {
		h.Fragments = append(h.Fragments, byVal[v])
		h.Predicates = append(h.Predicates, relation.And(relation.Eq(attr, v)))
	}
	return h, nil
}

// Uniform partitions d into n fragments of near-equal size. When
// seed >= 0 the tuples are shuffled with that seed first (the uniform
// random distribution of Exp-1); otherwise tuples are dealt round-robin
// in input order. The fragment predicates are unknown (always-true), so
// no Fi ∧ Fφ pruning applies — exactly the paper's "we avoid biasing
// the fragmentation" setup.
func Uniform(d *relation.Relation, n int, seed int64) (*Horizontal, error) {
	if n <= 0 {
		return nil, fmt.Errorf("partition: n must be positive, got %d", n)
	}
	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}
	if seed >= 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	h := &Horizontal{Schema: d.Schema()}
	for i := 0; i < n; i++ {
		h.Fragments = append(h.Fragments, relation.New(d.Schema()))
		h.Predicates = append(h.Predicates, relation.True())
	}
	for pos, i := range order {
		h.Fragments[pos%n].MustAppend(d.Tuple(i))
	}
	return h, nil
}
