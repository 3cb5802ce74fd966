package relation

import (
	"fmt"
	"slices"
)

// CountedSet is a set of distinct tuples over one schema, kept sorted by
// every attribute in schema order, as SortBy(schema.Attrs()...) leaves a
// relation. Each tuple has one reporting source, so Update takes only
// changes: a tuple is added while absent and removed while held. It
// applies one batch in time linear in the set plus the batch: only the
// batch is sorted, never the set.
type CountedSet struct {
	schema *Schema
	all    []int // every column: the key and the sort order
	held   map[string]struct{}
	sorted *Relation
}

// NewCountedSet returns the empty set over s.
func NewCountedSet(s *Schema) *CountedSet {
	all := make([]int, s.Arity())
	for i := range all {
		all[i] = i
	}
	return &CountedSet{schema: s, all: all, held: map[string]struct{}{}, sorted: New(s)}
}

// Update removes every tuple of removed, then adds every tuple of added,
// and returns the set as a fresh sorted relation: the added tuples merge
// into the previous relation and the removed ones are filtered out of
// it, so a relation an earlier Update returned is never changed. The
// returned relation is the set's own: read it, do not change it. Every
// relation must be over the set's attributes (nil is empty), a removed
// tuple must be held and an added one must not be; a batch that breaks
// any of these is refused with an error, and the set is then undefined.
func (cs *CountedSet) Update(added, removed []*Relation) (*Relation, error) {
	born, gone := New(cs.schema), New(cs.schema)
	for _, r := range removed {
		ts, err := cs.tuples(r)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			k := t.Key(cs.all)
			if _, ok := cs.held[k]; !ok {
				return nil, fmt.Errorf("relation: removing %v, which the set does not hold", t)
			}
			delete(cs.held, k)
			gone.tuples = append(gone.tuples, t)
		}
	}
	for _, r := range added {
		ts, err := cs.tuples(r)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			k := t.Key(cs.all)
			if _, ok := cs.held[k]; ok {
				return nil, fmt.Errorf("relation: adding %v, which the set already holds", t)
			}
			cs.held[k] = struct{}{}
			born.tuples = append(born.tuples, t)
		}
	}
	attrs := cs.schema.Attrs()
	for _, r := range []*Relation{born, gone} {
		if err := r.SortBy(attrs...); err != nil {
			return nil, err
		}
	}
	next, err := cs.sorted.MergeSorted(born, gone, attrs...)
	if err != nil {
		return nil, err
	}
	cs.sorted = next
	return next, nil
}

// tuples returns r's tuples once r is known to be over the set's
// attributes, in the set's order.
func (cs *CountedSet) tuples(r *Relation) ([]Tuple, error) {
	if r == nil {
		return nil, nil
	}
	if !slices.Equal(r.schema.Attrs(), cs.schema.Attrs()) {
		return nil, fmt.Errorf("relation: tuples over %v for a set over %v", r.schema.Attrs(), cs.schema.Attrs())
	}
	return r.Tuples(), nil
}
