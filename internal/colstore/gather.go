package colstore

import (
	"slices"

	"distcfd/internal/relation"
)

// Gather reads a batch of row selections — one per block — out of a
// packed column reader followed by in-memory tail columns, one column
// at a time and chunk-ordered: the column's chunks are walked once in
// ascending order, and its hits are scattered into every block's window
// through one cursor per block. A chunk no block has a row in is never
// read; one with fewer than pointReads hits has each read as a single
// ID (ReadColumn answers it with chunkAt); any other is decoded once per
// Column call, whatever order the selections list their rows in. A
// store site gathers what it checks into merge windows, packs what it
// ships (Pack), and reads the rows a delta deletes through one. One
// Gather serves one caller at a time.
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
	cur, end []int    // block b's hits in the current chunk are [cur[b], end[b])
	buf      []uint32 // one chunk's IDs, when no block takes it whole
}

// pointReads is the fewest hits in one chunk for which a gather decodes
// the chunk: sparse reads — the rows a delta deletes — never decode
// 8192 IDs for one.
const pointReads = 8

// NewGather returns the gather of refs over rd's base rows and the
// tail rows past them, whose columns tails holds. Its arguments are
// only read.
func NewGather(rd relation.PackedColumnReader, base int, tails [][]uint32, refs [][]int32) *Gather {
	n, ce := len(refs), make([]int, 2*len(refs))
	g := &Gather{rd: rd, base: base, tails: tails, refs: refs, ord: make([][]uint64, n), cur: ce[:n:n], end: ce[n:]}
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

// until returns the end of block b's hits below row hi, from its
// cursor on.
func (g *Gather) until(b, hi int) int {
	i := g.cur[b]
	if o := g.ord[b]; o != nil {
		e, _ := slices.BinarySearch(o[i:], uint64(hi)<<32)
		return i + e
	}
	e, _ := slices.BinarySearch(g.refs[b][i:], int32(hi))
	return i + e
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
			ids = nil // decoded once some block takes it whole or pointReads hits land in it
		}
		hits := 0
		for b := range g.refs {
			g.end[b] = g.until(b, hi)
			hits += g.end[b] - g.cur[b]
		}
		for b, r := range g.refs {
			win, o, i, e := wins[b], g.ord[b], g.cur[b], g.end[b]
			g.cur[b] = e
			if k < chunks && ids == nil && o == nil && e > i && e-i == hi-lo {
				// The block's next rows are the whole chunk in order:
				// decode straight into its window.
				ids = win[i:e]
				if err := g.rd.ReadColumn(c, lo, ids); err != nil {
					return err
				}
				continue
			}
			for ; i < e; i++ {
				p, ref := i, int(r[i])
				if o != nil {
					p, ref = int(uint32(o[i])), int(o[i]>>32)
				}
				switch {
				case ids != nil:
				case hits < pointReads:
					if err := g.rd.ReadColumn(c, ref, win[p:p+1]); err != nil {
						return err
					}
					continue
				default:
					g.buf = slices.Grow(g.buf[:0], hi-lo)[:hi-lo]
					ids = g.buf
					if err := g.rd.ReadColumn(c, lo, ids); err != nil {
						return err
					}
				}
				win[p] = ids[ref-lo]
			}
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
