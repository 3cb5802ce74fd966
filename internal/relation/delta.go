package relation

import (
	"fmt"
	"slices"
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

// Check is the one statement of a delta's shape: against a relation of
// schema holding n rows, every insert has the schema's arity and every
// delete lies in [0, n) and is distinct. It returns the deletes sorted
// descending — the order SwapRemove takes, shared by Apply and every
// cache that replays the same row moves. Whatever applies a delta, or
// evaluates anything on its inserts, runs it first.
func (d Delta) Check(schema *Schema, n int) ([]int, error) {
	for i, t := range d.Inserts {
		if len(t) != schema.Arity() {
			return nil, fmt.Errorf("relation: delta insert %d has arity %d, schema %s wants %d",
				i, len(t), schema.Name(), schema.Arity())
		}
	}
	if len(d.Deletes) == 0 {
		return nil, nil
	}
	out := slices.Clone(d.Deletes)
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

// SwapRemove removes the rows at idx, in Check's descending order, from
// s in place — each is filled by the then-last row — and returns the
// shortened slice. Descending deletion never moves a row still to be
// removed, so s[i] for every i in idx reads the removed rows as they
// stand before the call.
func SwapRemove[T any](s []T, idx []int) []T {
	for _, i := range idx {
		last := len(s) - 1
		s[i] = s[last]
		s = s[:last]
	}
	return s
}

// Apply mutates the relation by d: deletes first (swap-with-last, so
// row order is not preserved across deletes), then inserts appended at
// the end. It returns the removed tuples, in the order Check yields
// (descending pre-delta index) — the record a delta log keeps so
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
	delIdx, err := d.Check(r.schema, r.Len())
	if err != nil {
		return nil, err
	}
	r.materializeForWrite()
	old := r.enc.Load()
	tuples := r.tuples
	var removed []Tuple
	if len(delIdx) > 0 {
		removed = make([]Tuple, len(delIdx))
		for k, di := range delIdx {
			removed[k] = tuples[di]
		}
		// Copy before swapping: the previous Encoded generation shares
		// the old backing array with its readers.
		tuples = SwapRemove(slices.Clone(tuples), delIdx)
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
