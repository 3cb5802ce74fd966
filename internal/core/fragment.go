package core

import (
	"slices"

	"distcfd/internal/relation"
)

// siteFragment is the Site's storage seam: every fragment-touching
// operation a site performs, abstracted over where the tuples live.
// memFrag serves them from an in-memory *relation.Relation (the
// original deployment shape); storeFrag (storefrag.go) serves them
// from a packed colstore fragment plus an in-memory delta overlay, so
// a site can hold a fragment bigger than RAM. Columns are read two
// ways: GatherBlocks for what the site reads itself — σ-routing,
// mining, the constant-unit state, its own checks — and ShipBlocks for
// what it ships.
//
// Read methods must be safe for concurrent callers. Apply, called only
// by Site.ApplyDelta, is the one writer of the fragment's rows; the
// driver serializes it against detection.
type siteFragment interface {
	// Schema returns the fragment schema.
	Schema() *relation.Schema
	// Len returns the current tuple count |Di|.
	Len() int
	// GatherBlocks projects each row list of blocks (rows in list
	// order) onto attrs, straight into m's windows ahead of deps[b]'s
	// rows (relation.Merge.Blocks; deps may be nil), under the
	// fragment's dictionaries (IDs stay valid, merely sparse) so checks
	// keep the fragment's interning. The result, parallel to blocks, is
	// valid until m merges again.
	GatherBlocks(m *relation.Merge, name string, attrs []string, blocks [][]int32, deps [][]*relation.Relation) ([]*relation.Relation, error)
	// ShipBlocks projects each row list of blocks onto attrs in the
	// form it ships in: a store fragment packs it at extraction, using
	// m's scratch, a gathered block as its distinct rows plus their
	// counts (relation.Relation.Counts); a memory fragment ships plain
	// bags. The result is parallel to blocks, an empty list yielding an
	// empty relation. Both take a whole batch so that a store fragment
	// can decode each chunk once for all of it.
	ShipBlocks(m *relation.Merge, name string, attrs []string, blocks [][]int32) ([]*relation.Relation, error)
	// Apply applies one delta (deletes by swap-with-last, then inserts
	// appended), returning the removed tuples in descending pre-delta
	// index order — the same contract as relation.Apply. The returned
	// tuples are stable (safe to retain in the delta log).
	Apply(d relation.Delta) ([]relation.Tuple, error)
	// Close releases any resources backing the fragment.
	Close() error
}

// memFrag adapts *relation.Relation to the seam. The relation is the
// site's own (ownRows): no caller holds it, so only Apply changes it.
type memFrag struct {
	r *relation.Relation
}

var _ siteFragment = memFrag{}

// ownRows returns a relation over r's rows in a row slice of its own.
// The rows are shared and never written, so appending to or sorting
// either relation leaves the other as it was.
func ownRows(r *relation.Relation) *relation.Relation {
	out, _ := relation.FromTuples(r.Schema(), slices.Clone(r.Tuples())) // r's rows fit its schema
	return out
}

func (m memFrag) Schema() *relation.Schema { return m.r.Schema() }

func (m memFrag) Len() int { return m.r.Len() }

func (m memFrag) GatherBlocks(mg *relation.Merge, name string, attrs []string, blocks [][]int32, deps [][]*relation.Relation) ([]*relation.Relation, error) {
	return mg.ProjectBlocks(m.r, name, attrs, blocks, deps)
}

func (m memFrag) ShipBlocks(_ *relation.Merge, name string, attrs []string, blocks [][]int32) (out []*relation.Relation, err error) {
	out = make([]*relation.Relation, len(blocks))
	for b, rows := range blocks {
		if out[b], err = relation.Project(m.r, name, attrs, rows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (m memFrag) Apply(d relation.Delta) ([]relation.Tuple, error) {
	return m.r.Apply(d)
}

func (m memFrag) Close() error { return nil }
