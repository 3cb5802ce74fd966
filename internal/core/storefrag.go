package core

import (
	"fmt"
	"path/filepath"

	"distcfd/internal/colstore"
	"distcfd/internal/relation"
)

// storeFrag is the out-of-core siteFragment: the bulk of the fragment
// lives in a packed colstore file (mapped read-only, decoded chunk by
// chunk), while deltas applied since the file was written live in an
// in-memory overlay. Reads see base ∪ overlay through a single row
// indirection; every applied delta is also appended to an on-disk WAL,
// so a restarted site replays the log over the same base file and
// recovers the exact pre-crash tuple order (and therefore byte-equal
// detection output).
//
// The overlay replicates relation.Apply's semantics precisely —
// swap-with-last deletes, inserts appended, dictionaries grown by
// relation.Dict.InternInserts — because the serving caches (σ-entries,
// constant-unit states) are maintained under exactly those
// assumptions.
type storeFrag struct {
	frag *colstore.Fragment
	// rd is frag as the chunk reader every base row is read through —
	// the gathers of GatherBlocks, ShipBlocks and the rows Apply
	// deletes; tests wrap it to count the reads.
	rd       relation.PackedColumnReader
	wal      *colstore.DeltaLog
	schema   *relation.Schema
	baseRows int

	// ovDicts[j] is nil until the first insert-carrying Apply — until
	// then reads use the fragment's lazily-decoded base dict via
	// ovDict, so dictionaries of columns no rule touches are never
	// materialized. Apply grows it by relation.Dict.InternInserts, so
	// extracts sharing a previous layer never observe a mutation.
	ovDicts []*relation.Dict
	// tailIDs[j] holds column j of every inserted row, as IDs into
	// ovDicts[j]: the overlay's only copy of its rows.
	tailIDs [][]uint32
	// view is nil until the first delete: row i is ref i. Once deletes
	// happen the indirection materializes (ref < baseRows → base row,
	// else overlay row ref-baseRows) and replays relation.Apply's exact
	// swap-with-last moves, keeping σ-entry maintenance valid.
	view []uint32
}

var _ siteFragment = (*storeFrag)(nil)

// openStoreFrag maps the packed fragment in dir, opens (creating if
// absent) its WAL, and replays the logged deltas into the overlay.
// It returns the number of deltas replayed — the site's recovered
// generation.
func openStoreFrag(dir string) (*storeFrag, int, error) {
	frag, err := colstore.OpenDir(dir)
	if err != nil {
		return nil, 0, err
	}
	arity := frag.NumColumns()
	f := &storeFrag{
		frag:     frag,
		rd:       frag,
		schema:   frag.Schema(),
		baseRows: frag.Rows(),
		ovDicts:  make([]*relation.Dict, arity),
		tailIDs:  make([][]uint32, arity),
	}
	wal, deltas, err := colstore.OpenDeltaLog(filepath.Join(dir, colstore.DeltaLogFile), arity)
	if err != nil {
		frag.Close()
		return nil, 0, err
	}
	// Replay with the WAL detached so recovery does not re-append the
	// deltas it is reading back.
	for i, d := range deltas {
		if _, err := f.Apply(d); err != nil {
			wal.Close()
			frag.Close()
			return nil, 0, fmt.Errorf("colstore: replaying delta %d/%d: %w", i+1, len(deltas), err)
		}
	}
	f.wal = wal
	return f, len(deltas), nil
}

func (f *storeFrag) Schema() *relation.Schema { return f.schema }

func (f *storeFrag) Len() int {
	if f.view != nil {
		return len(f.view)
	}
	return f.baseRows + f.tailRows()
}

// tailRows returns the number of rows inserted since the file was
// written.
func (f *storeFrag) tailRows() int { return len(f.tailIDs[0]) }

// ovDict returns column j's current dictionary: the chained overlay
// once an insert has grown it, the fragment's base dictionary until
// then. Reads never populate ovDicts — only Apply writes it — so
// concurrent readers contend only on the fragment's decode-once.
func (f *storeFrag) ovDict(j int) (*relation.Dict, error) {
	if d := f.ovDicts[j]; d != nil {
		return d, nil
	}
	return f.frag.Dict(j)
}

// refs resolves every block's rows to storage refs: the rows
// themselves until a delete materializes the view.
func (f *storeFrag) refs(blocks [][]int32) [][]int32 {
	if f.view == nil {
		return blocks
	}
	refs := make([][]int32, len(blocks))
	for b, rows := range blocks {
		refs[b] = make([]int32, len(rows))
		for k, i := range rows {
			refs[b][k] = int32(f.view[i])
		}
	}
	return refs
}

// GatherBlocks gathers the batch (colstore.Gather) straight into m's
// windows, each block ahead of its deposits.
func (f *storeFrag) GatherBlocks(m *relation.Merge, name string, attrs []string, blocks [][]int32, deps [][]*relation.Relation) ([]*relation.Relation, error) {
	ps, err := f.schema.Project(name, attrs)
	if err != nil {
		return nil, err
	}
	idx, _ := f.schema.Indices(attrs) // Project checked them
	locals := make([]int, len(blocks))
	for b, rows := range blocks {
		locals[b] = len(rows)
	}
	g := colstore.NewGather(f.rd, f.baseRows, f.tailIDs, f.refs(blocks))
	return m.Blocks(ps, locals, deps, func(j int, wins [][]uint32) (*relation.Dict, error) {
		if err := g.Column(idx[j], wins); err != nil {
			return nil, err
		}
		return f.ovDict(idx[j])
	})
}

// ShipBlocks packs every block at extraction, never materializing its
// columns: a block that is every base row in order is the fragment's
// own columns (Fragment.PackBase, no chunk decoded); any other is
// gathered a column at a time into m's scratch and packed from there,
// grouped into its distinct rows and their counts (colstore.Gather.Pack).
func (f *storeFrag) ShipBlocks(m *relation.Merge, name string, attrs []string, blocks [][]int32) ([]*relation.Relation, error) {
	ps, err := f.schema.Project(name, attrs)
	if err != nil {
		return nil, err
	}
	idx, _ := f.schema.Indices(attrs)
	packs, err := colstore.NewGather(f.rd, f.baseRows, f.tailIDs, f.refs(blocks)).Pack(idx, f.ovDict, m.Scratch)
	if err != nil {
		return nil, err
	}
	out := make([]*relation.Relation, len(blocks))
	for b, p := range packs {
		if p == nil {
			if p, err = f.frag.PackBase(idx); err != nil {
				return nil, err
			}
		}
		if out[b], err = relation.FromPackedExtract(ps, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f *storeFrag) Apply(d relation.Delta) ([]relation.Tuple, error) {
	delIdx, err := d.Check(f.schema, f.Len())
	if err != nil {
		return nil, err
	}
	// Everything that can fail — reading the removed rows, decoding the
	// base dictionaries, the WAL append — runs first, and nothing after
	// the append can: a delta is logged if and only if it is applied, and
	// a crash after the append replays it. Descending swap-with-last
	// deletion never moves a row it has yet to delete, so the removed
	// rows read as they stand.
	var removed []relation.Tuple
	if len(delIdx) > 0 {
		// One gather of every column (a few rows a chunk are point
		// reads), materialized as fresh tuples.
		rows := make([]int32, len(delIdx))
		for k, i := range delIdx {
			rows[k] = int32(i)
		}
		proj, err := f.GatherBlocks(new(relation.Merge), f.schema.Name(), f.schema.Attrs(), [][]int32{rows}, nil)
		if err != nil {
			return nil, err
		}
		removed = proj[0].Tuples()
	}
	var dicts []*relation.Dict
	if len(d.Inserts) > 0 {
		dicts = make([]*relation.Dict, len(f.ovDicts))
	}
	for j := range dicts {
		if dicts[j], err = f.ovDict(j); err != nil {
			return nil, err
		}
	}
	if f.wal != nil {
		if err := f.wal.Append(d); err != nil {
			return nil, err
		}
	}
	if len(delIdx) > 0 && f.view == nil {
		f.view = make([]uint32, f.Len())
		for i := range f.view {
			f.view[i] = uint32(i)
		}
	}
	f.view = relation.SwapRemove(f.view, delIdx)
	if f.view != nil {
		for k := range d.Inserts {
			f.view = append(f.view, uint32(f.baseRows+f.tailRows()+k))
		}
	}
	for j, dict := range dicts {
		f.ovDicts[j], f.tailIDs[j] = dict.InternInserts(f.tailIDs[j], d.Inserts, j)
	}
	return removed, nil
}

func (f *storeFrag) Close() error {
	var first error
	if f.wal != nil {
		if err := f.wal.Close(); err != nil {
			first = err
		}
	}
	if err := f.frag.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
