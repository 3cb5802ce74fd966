package colstore

import (
	"slices"
	"sync"

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

// Whole reports whether block b selects every base row in order and
// nothing else: its refs ascend strictly (NewGather's scan left ord[b]
// nil), there are base of them and the last is a base row.
func (g *Gather) Whole(b int) bool {
	r := g.refs[b]
	return g.ord[b] == nil && len(r) == g.base && (len(r) == 0 || int(r[len(r)-1]) < g.base)
}

// needsBase reports whether some block reads a base row: its lowest ref
// is one.
func (g *Gather) needsBase() bool {
	for b, r := range g.refs {
		if len(r) == 0 {
			continue
		}
		lowest := int(r[0])
		if o := g.ord[b]; o != nil {
			lowest = int(o[0] >> 32)
		}
		if lowest < g.base {
			return true
		}
	}
	return false
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
	if g.needsBase() {
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
// into one buffer of the caller's scratch and packed from there as
// column j (Packed.PackColumn), its IDs indexing dict(cols[j]). A
// block Whole reports is left out, nil, for the caller to ship the
// base's own columns (Fragment.PackBase).
//
// A block ships as its distinct rows over cols, in first-occurrence
// order, plus a count column (Packed.Counts), priced with every row
// weighed by its count — the prices of the block's rows. Each gathered
// column is folded into the block's running group IDs (relation.Fold),
// recording every composite the fold interns fresh, so the distinct
// rows are rebuilt from the records without keeping a column. A block
// whose rows are all distinct by some column packs the columns after it
// straight from the buffer, and ships as its rows, byte for byte, with
// no count column.
func (g *Gather) Pack(cols []int, dict func(c int) (*relation.Dict, error), scratch func(n int) []uint32) ([]*Packed, error) {
	nb := len(g.refs)
	packs, skip := make([]*Packed, nb), make([]bool, nb)
	for b, cloned := 0, false; b < nb; b++ {
		if skip[b] = g.Whole(b); skip[b] && len(g.refs[b]) > 0 {
			if !cloned { // the caller's lists are only read
				g.refs, cloned = slices.Clone(g.refs), true
			}
			g.refs[b] = nil
		}
	}
	// One column of the batch (wins), every block's group IDs (gids)
	// and the longest block's IDs before a fold (prev).
	n, longest := 0, 0
	for _, r := range g.refs {
		n, longest = n+len(r), max(longest, len(r))
	}
	buf := scratch(2*n + longest)
	wins, gids, prev := make([][]uint32, nb), make([][]uint32, nb), buf[2*n:]
	st := getGroupScratch(nb, len(cols))
	defer putGroupScratch(st)
	for b, off := 0, 0; b < nb; b++ {
		k := len(g.refs[b])
		wins[b], st.num[b] = buf[off:off+k:off+k], k
		if k > 0 {
			gids[b], st.num[b] = buf[n+off:n+off+k:n+off+k], 1
			clear(gids[b])
		}
		off += k
	}
	dicts := make([]*relation.Dict, len(cols))
	for j, c := range cols {
		var err error
		if dicts[j], err = dict(c); err == nil && n > 0 {
			err = g.Column(c, wins)
		}
		for b, win := range wins {
			switch {
			case err != nil || skip[b]:
			case st.num[b] == len(win):
				if packs[b] == nil {
					packs[b] = NewPayload(len(win), len(cols))
				}
				err = packs[b].PackColumn(j, dicts[j], win)
			default:
				st.fold(b, j, gids[b], win, prev, dicts[j].Len())
			}
		}
		if err != nil {
			return nil, err
		}
	}
	for b := range packs {
		if !skip[b] && st.folded[b] > 0 {
			var err error
			if packs[b], err = st.pack(b, packs[b], dicts, gids[b], wins[b], prev); err != nil {
				return nil, err
			}
		}
	}
	return packs, nil
}

// groupScratch is what Pack's grouping reuses across calls: the fold,
// the records of every block's folded columns in one list, and per
// block its group count, how many columns it folded and where their
// records start.
type groupScratch struct {
	fd     relation.Fold
	recs   []uint64 // a fresh composite each: group before the fold << 32 | value
	num    []int    // block b's groups over the columns folded so far
	folded []int    // block b folded its first folded[b] columns
	start  []int    // block b's column j records start at start[b*ncols+j]
	ncols  int
	counts []uint32 // the block being packed's, until its count section is coded
}

var groupScratches = sync.Pool{New: func() any { return new(groupScratch) }}

// groupShrink bounds the records a pooled groupScratch keeps (8 MiB).
const groupShrink = 1 << 20

func getGroupScratch(blocks, ncols int) *groupScratch {
	st := groupScratches.Get().(*groupScratch)
	st.recs, st.ncols = st.recs[:0], ncols
	st.num = slices.Grow(st.num[:0], blocks)[:blocks]
	st.folded = slices.Grow(st.folded[:0], blocks)[:blocks]
	clear(st.folded)
	st.start = slices.Grow(st.start[:0], blocks*ncols)[:blocks*ncols]
	return st
}

func putGroupScratch(st *groupScratch) {
	st.fd.Shrink()
	if cap(st.recs) > groupShrink {
		st.recs = nil
	}
	if cap(st.counts) > groupShrink {
		st.counts = nil
	}
	groupScratches.Put(st)
}

// fold folds win, column j of block b, into the block's group IDs gids
// and records the composites interned fresh, in the order of their
// IDs; prev is scratch at least as long as gids.
func (st *groupScratch) fold(b, j int, gids, win, prev []uint32, card int) {
	st.start[b*st.ncols+j], st.folded[b] = len(st.recs), j+1
	if !slices.ContainsFunc(win, func(v uint32) bool { return v != win[0] }) {
		// One value — a σ-block's constant X columns: composite (g,
		// win[0]) first occurs where g does, so every group keeps its ID.
		for g := range st.num[b] {
			st.recs = append(st.recs, uint64(g)<<32|uint64(win[0]))
		}
		return
	}
	prev = prev[:len(gids)]
	copy(prev, gids)
	st.num[b] = st.fd.Column(gids, win, st.num[b], card)
	base := len(st.recs)
	for i, g := range gids {
		if int(g) == len(st.recs)-base {
			st.recs = append(st.recs, uint64(prev[i])<<32|uint64(win[i]))
		}
	}
}

// pack completes block b's payload p (nil when no column was packed
// yet): it rebuilds the block's distinct rows from the records of its
// folded columns into out, the last one first (cur holds each row's
// group at the column), and packs them, priced with their counts — none
// when every row is distinct.
func (st *groupScratch) pack(b int, p *Packed, dicts []*relation.Dict, gids, out, cur []uint32) (*Packed, error) {
	k := st.num[b]
	var counts []uint32
	if k < len(gids) {
		st.counts = slices.Grow(st.counts[:0], k)[:k]
		counts = st.counts
		clear(counts)
		for _, g := range gids {
			counts[g]++
		}
	}
	if p == nil {
		p = NewPayload(k, len(dicts))
	}
	out, cur = out[:k], cur[:k]
	for v := range cur {
		cur[v] = uint32(v)
	}
	for j := st.folded[b] - 1; j >= 0; j-- {
		recs := st.recs[st.start[b*st.ncols+j]:]
		for v, g := range cur {
			out[v], cur[v] = uint32(recs[g]), uint32(recs[g]>>32)
		}
		if err := p.packColumn(j, dicts[j], out, counts); err != nil {
			return nil, err
		}
	}
	if counts != nil {
		p.countSection, p.bag = EncodeCounts(counts), len(gids)
	}
	return p, nil
}
