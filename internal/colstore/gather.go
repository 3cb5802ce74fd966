package colstore

import (
	"slices"

	"distcfd/internal/relation"
)

// Gather reads a batch of row selections — one per block — out of a
// packed column reader followed by in-memory tail columns, one column
// at a time and chunk-ordered: the column's chunks are walked once in
// ascending order, a chunk is decoded only if some block has a row in
// it, and its hits are scattered into every block's window through one
// cursor per block. Each (column, chunk) is thus decoded at most once
// per Column call, whatever order the selections list their rows in.
// A store site gathers what it checks into merge windows and packs
// what it ships (Pack). One Gather serves one caller at a time.
type Gather struct {
	rd    relation.PackedColumnReader
	base  int        // rows rd holds; a ref r ≥ base is row r-base of the tail
	tails [][]uint32 // tails[c] holds column c of the tail rows
	// refs[b] are block b's refs in row order; ord[b] holds (ref << 32 |
	// position) keys in ascending order and stays nil while the refs
	// already ascend strictly (every routed list of a fragment without
	// a view).
	refs     [][]int32
	ord      [][]uint64
	needBase bool
	cur      []int
	buf      []uint32 // one chunk's IDs, when no block takes it whole
}

// NewGather returns the gather of refs over rd's base rows and the
// tail rows past them, whose columns tails holds. Its arguments are
// only read.
func NewGather(rd relation.PackedColumnReader, base int, tails [][]uint32, refs [][]int32) *Gather {
	g := &Gather{rd: rd, base: base, tails: tails, refs: refs, ord: make([][]uint64, len(refs)), cur: make([]int, len(refs))}
	for b, r := range refs {
		asc := true
		for k, ref := range r {
			asc = asc && (k == 0 || ref > r[k-1])
			g.needBase = g.needBase || int(ref) < base
		}
		if asc {
			continue
		}
		// Packed keys sort without a comparator.
		keys := make([]uint64, len(r))
		for k, ref := range r {
			keys[k] = uint64(ref)<<32 | uint64(k)
		}
		slices.Sort(keys)
		g.ord[b] = keys
	}
	return g
}

// Column writes column c of every block b into wins[b], as long as
// refs[b]. A column no base row is read from is never paged in.
func (g *Gather) Column(c int, wins [][]uint32) error {
	chunks, tail := 0, g.tails[c]
	if g.needBase {
		var err error
		if chunks, err = g.rd.ColumnChunks(c); err != nil {
			return err
		}
	}
	clear(g.cur)
	for k := 0; k <= chunks; k++ {
		// Past the last chunk comes the tail: IDs already.
		lo, hi, ids := g.base, g.base+len(tail), tail
		if k < chunks {
			lo, hi = g.rd.ChunkSpan(c, k)
			ids = nil // decoded once some block has a row in it
		}
		n := hi - lo
		for b, r := range g.refs {
			win, o, i := wins[b], g.ord[b], g.cur[b]
			if k < chunks && ids == nil && o == nil && i+n <= len(r) && int(r[i]) == lo && int(r[i+n-1]) == hi-1 {
				// The block's next rows are the whole chunk in order:
				// decode straight into its window.
				ids, g.cur[b] = win[i:i+n], i+n
				if err := g.rd.ReadColumn(c, lo, ids); err != nil {
					return err
				}
				continue
			}
			for ; i < len(r); i++ {
				p, ref := i, int(r[i])
				if o != nil {
					p, ref = int(uint32(o[i])), int(o[i]>>32)
				}
				if ref >= hi {
					break
				}
				if ids == nil {
					g.buf = slices.Grow(g.buf[:0], n)[:n]
					ids = g.buf
					if err := g.rd.ReadColumn(c, lo, ids); err != nil {
						return err
					}
				}
				win[p] = ids[ref-lo]
			}
			g.cur[b] = i
		}
	}
	return nil
}

// Pack packs every block a column at a time, never holding more than
// one column of the batch: column cols[j] of every block is gathered
// into one buffer of scratch(rows) IDs and packed from there as column
// j (Packed.PackColumn), its IDs indexing dict(cols[j]).
func (g *Gather) Pack(cols []int, dict func(c int) (*relation.Dict, error), scratch func(n int) []uint32) ([]*Packed, error) {
	packs, wins, n := make([]*Packed, len(g.refs)), make([][]uint32, len(g.refs)), 0
	for b, r := range g.refs {
		packs[b], n = NewPayload(len(r), len(cols)), n+len(r)
	}
	buf := scratch(n)
	for b, r := range g.refs {
		wins[b], buf = buf[:len(r):len(r)], buf[len(r):]
	}
	for j, c := range cols {
		d, err := dict(c)
		if err == nil {
			err = g.Column(c, wins)
		}
		for b := 0; err == nil && b < len(packs); b++ {
			err = packs[b].PackColumn(j, d, wins[b])
		}
		if err != nil {
			return nil, err
		}
	}
	return packs, nil
}
