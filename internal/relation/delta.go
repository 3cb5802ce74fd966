package relation

import (
	"fmt"
	"sort"
)

// Delta is a batch mutation of a relation: tuples to remove, addressed
// by their row index in the pre-delta state, plus tuples to insert. It
// is the unit of change of the incremental detection path: sites apply
// deltas to their fragments, log them, and detection re-evaluates only
// what a delta touched instead of the whole instance.
//
// An update is expressed as a delete of the old row plus an insert of
// the new version in the same Delta.
type Delta struct {
	// Inserts are appended after the deletes are applied. The tuples
	// are adopted, not copied; callers must not mutate them afterwards.
	Inserts []Tuple
	// Deletes lists row indices into the relation as it stands before
	// this delta, each in [0, Len()) and free of duplicates.
	Deletes []int
}

// NormalizeDeletes validates delete indices against a relation of n
// rows and returns them sorted descending — the order in which
// swap-with-last deletion processes them, shared by Relation.Apply and
// every cache that replays the same row moves.
func NormalizeDeletes(deletes []int, n int) ([]int, error) {
	if len(deletes) == 0 {
		return nil, nil
	}
	out := make([]int, len(deletes))
	copy(out, deletes)
	// Descending; nothing bounds a caller's delta, so no quadratic sort.
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	for i, idx := range out {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("relation: delete index %d out of range [0,%d)", idx, n)
		}
		if i > 0 && out[i-1] == idx {
			return nil, fmt.Errorf("relation: delete index %d duplicated", idx)
		}
	}
	return out, nil
}

// Apply mutates the relation by d: deletes first (swap-with-last, so
// row order is not preserved across deletes), then inserts appended at
// the end. It returns the removed tuples, in the order NormalizeDeletes
// yields (descending pre-delta index) — the record a delta log keeps so
// downstream incremental state can fold the deletion by value.
//
// Unlike Append/SortBy, Apply maintains the cached columnar view
// instead of invalidating it: built columns are extended (and, under
// deletes, compacted by the same swaps), dictionaries grow by chaining
// a fresh overlay over the frozen previous layer. Insert-only deltas
// cost O(|Δ|); a delta with deletes additionally pays one O(|D|) memcpy
// of the tuple slice and each built column — the price of never
// mutating memory the previous generation's readers can reach — which
// is far below the re-encode/re-route/re-ship work the maintained view
// avoids. Readers holding the previous Encoded keep a consistent
// pre-delta snapshot — Apply never mutates memory a previous generation
// can reach — so concurrent readers that access the relation through
// Encoded() are safe during Apply. Direct Tuples()/Tuple() access still
// requires external synchronization with any mutation, as before.
func (r *Relation) Apply(d Delta) ([]Tuple, error) {
	for i, t := range d.Inserts {
		if len(t) != r.schema.Arity() {
			return nil, fmt.Errorf("relation: delta insert %d has arity %d, schema %s wants %d",
				i, len(t), r.schema.Name(), r.schema.Arity())
		}
	}
	delIdx, err := NormalizeDeletes(d.Deletes, r.Len())
	if err != nil {
		return nil, err
	}
	r.materializeForWrite()
	old := r.enc.Load()
	tuples := r.tuples
	var removed []Tuple
	if len(delIdx) > 0 {
		// Copy before swapping: the previous Encoded generation shares
		// the old backing array with its readers.
		nt := make([]Tuple, len(tuples))
		copy(nt, tuples)
		removed = make([]Tuple, 0, len(delIdx))
		for _, di := range delIdx {
			removed = append(removed, nt[di])
			last := len(nt) - 1
			nt[di] = nt[last]
			nt = nt[:last]
		}
		tuples = nt
	}
	tuples = append(tuples, d.Inserts...)
	r.tuples = tuples
	if old != nil {
		r.enc.Store(old.applyDelta(tuples, delIdx, d.Inserts))
	}
	// Any attached packed payload described the pre-delta rows.
	r.packed.Store(nil)
	return removed, nil
}
