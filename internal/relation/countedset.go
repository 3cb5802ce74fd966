package relation

import (
	"fmt"
	"slices"
)

// CountedSet is a set of distinct tuples over one schema, each held
// with a count — how many sources report it — and kept sorted by every
// attribute in schema order, as SortBy(schema.Attrs()...) leaves a
// relation. A tuple is in the set while its count is positive. Update
// applies one batch of reports in time linear in the set plus the
// batch: only the batch is sorted, never the set.
type CountedSet struct {
	schema *Schema
	all    []int // every column: the key and the sort order
	count  map[string]int
	sorted *Relation
}

// NewCountedSet returns the empty set over s.
func NewCountedSet(s *Schema) *CountedSet {
	all := make([]int, s.Arity())
	for i := range all {
		all[i] = i
	}
	return &CountedSet{schema: s, all: all, count: map[string]int{}, sorted: New(s)}
}

// Update counts every tuple of removed down, then every tuple of added
// up, and returns the set as a fresh sorted relation: the tuples whose
// count left zero merge into the previous relation and those whose
// count returned there are filtered out of it, so a relation an earlier
// Update returned is never changed. The returned relation is the set's
// own: read it, do not change it. Every relation must be over the set's
// attributes (nil is empty) and no removal may take a count below zero;
// a batch that breaks either is refused with an error, and the set is
// then undefined.
func (cs *CountedSet) Update(added, removed []*Relation) (*Relation, error) {
	born, gone := New(cs.schema), New(cs.schema)
	for _, r := range removed {
		ts, err := cs.tuples(r)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			k := t.Key(cs.all)
			switch n := cs.count[k]; n {
			case 0:
				return nil, fmt.Errorf("relation: removing %v, which the set does not hold", t)
			case 1:
				delete(cs.count, k)
				gone.tuples = append(gone.tuples, t)
			default:
				cs.count[k] = n - 1
			}
		}
	}
	for _, r := range added {
		ts, err := cs.tuples(r)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			k := t.Key(cs.all)
			if cs.count[k]++; cs.count[k] == 1 {
				born.tuples = append(born.tuples, t)
			}
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
