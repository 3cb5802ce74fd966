package relation

import (
	"fmt"
	"slices"
	"sync"
)

// mergeShrinkIDs bounds the ID buffer a pooled Merge may retain: past
// it the buffer is dropped when Shrink runs, so one huge block cannot
// permanently inflate a long-lived site's pool (the bound the kernel's
// scratch keeps with its own row budget). 1<<23 IDs is 32 MiB, a
// 2M-row block of four columns.
const mergeShrinkIDs = 1 << 23

// Merge is the reusable destination of Concat and Blocks, and the
// buffer a store site gathers a column to pack in (Scratch). The
// relations a call returns read their columns straight from the
// Merge's buffer, so they are valid only until the next call on the
// same Merge; whatever must outlive that is taken from them first (a
// coordinator keeps only the pattern tuples its check reports, which
// are strings). The zero value is ready to use; one Merge serves one
// caller at a time.
type Merge struct {
	ids []uint32 // every column of the last merge, one window each
	rn  Renumber // translates a part over another dictionary
}

// Concat is Merge.Concat into a fresh destination, so its result stays
// valid for as long as it is referenced.
func Concat(parts ...*Relation) (*Relation, error) {
	var m Merge
	return m.Concat(parts...)
}

// Concat returns a relation holding every part's tuples in order under
// parts[0]'s schema (parts must share its arity, like AppendAll). It
// merges under the first non-empty part's dictionaries: that part keeps
// its IDs, a part sharing its dictionary is copied as it is, and any
// other part is translated (Renumber.Translate) once per distinct value
// by a Lookup there — a row-backed part once per cell — so only values
// the base dictionary lacks are interned, into an overlay made at the
// first such value.
// The base dictionary is never written: the coordinators of one site
// share their fragment's. A packed part decodes through its reader
// straight into its window of the merged column, where a corrupt chunk
// is an error. The result is lazy and reads its columns in place, so a
// check over it copies nothing.
func (m *Merge) Concat(parts ...*Relation) (*Relation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("relation: Concat with no inputs")
	}
	out, err := m.Blocks(parts[0].schema, []int{0}, [][]*Relation{parts}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Blocks merges a batch of blocks at once, each over s: block b is
// locals[b] rows that gather writes straight into the head of the
// block's window, then the rows of every part of deps[b] (deps may be
// nil), merged after them as Concat merges parts. gather(j, wins) fills
// wins[b] — locals[b] IDs — with column j of local block b and returns
// the dictionary they index, which is the merge's base; a block with no
// local rows merges under its first non-empty part's, as Concat does.
// gather is not called when no block has local rows; then a block with
// no rows at all is an empty relation, and otherwise one under the
// gathered dictionaries.
func (m *Merge) Blocks(s *Schema, locals []int, deps [][]*Relation, gather func(j int, wins [][]uint32) (*Dict, error)) ([]*Relation, error) {
	arity, sum, gathered := s.Arity(), 0, false
	totals, offs := make([]int, len(locals)), make([]int, len(locals))
	for b, n := range locals {
		totals[b], gathered = n, gathered || n > 0
		for _, p := range partsOf(deps, b) {
			if p.schema.Arity() != arity {
				return nil, fmt.Errorf("relation: cannot concat %s (arity %d) with %s (arity %d)",
					p.schema.Name(), p.schema.Arity(), s.Name(), arity)
			}
			totals[b] += p.Len()
		}
		offs[b], sum = sum, sum+totals[b]*arity
	}
	m.ids = sized(m.ids, sum)
	out, encs := make([]*Relation, len(locals)), make([]*Encoded, len(locals))
	for b, t := range totals {
		if t == 0 && !gathered {
			out[b] = New(s)
		} else {
			out[b], encs[b] = lazyView(s, t)
		}
	}
	// Block b's columns are consecutive windows of totals[b] IDs from
	// offs[b].
	window := func(b, j int) []uint32 {
		lo, hi := offs[b]+j*totals[b], offs[b]+(j+1)*totals[b]
		return m.ids[lo:hi:hi]
	}
	wins := make([][]uint32, len(locals))
	for j := 0; j < arity; j++ {
		var d *Dict
		if gathered {
			for b := range wins {
				wins[b] = window(b, j)[:locals[b]]
			}
			var err error
			if d, err = gather(j, wins); err != nil {
				return nil, err
			}
		}
		for b, enc := range encs {
			if enc == nil {
				continue
			}
			base := d
			if locals[b] == 0 {
				base = nil
			}
			col := window(b, j)
			cd, err := m.column(j, col, locals[b], base, partsOf(deps, b))
			if err != nil {
				return nil, err
			}
			if totals[b] == 0 {
				cd = d
			}
			enc.cols[j], enc.dicts[j] = col, cd
		}
	}
	return out, nil
}

// ProjectBlocks is Blocks over r's own rows: block b's local rows are
// rows blocks[b] of r, in list order, projected onto attrs and named
// name, gathered from r's encoded columns under r's dictionaries — the
// in-memory counterpart of a store site's chunk-ordered gather.
func (m *Merge) ProjectBlocks(r *Relation, name string, attrs []string, blocks [][]int32, deps [][]*Relation) ([]*Relation, error) {
	ps, err := r.schema.Project(name, attrs)
	if err != nil {
		return nil, err
	}
	idx, _ := r.schema.Indices(attrs) // Project checked them
	locals, e := make([]int, len(blocks)), r.Encoded()
	for b, rows := range blocks {
		locals[b] = len(rows)
	}
	return m.Blocks(ps, locals, deps, func(j int, wins [][]uint32) (*Dict, error) {
		col, d := e.Column(idx[j])
		for b, rows := range blocks {
			for k, i := range rows {
				wins[b][k] = col[i]
			}
		}
		return d, nil
	})
}

// partsOf returns deps[b], nil when deps is.
func partsOf(deps [][]*Relation, b int) []*Relation {
	if deps == nil {
		return nil
	}
	return deps[b]
}

// Scratch returns n IDs of m's buffer for the caller's own use — a
// store site gathers a column of the blocks it packs there. What m
// merged before is invalid after.
func (m *Merge) Scratch(n int) []uint32 {
	m.ids = sized(m.ids, n)
	return m.ids
}

// column fills col, whose first off IDs already hold a part indexing
// base (nil when off is 0), with every part's column j after them, in
// order, and returns the dictionary col reads through: base — else
// the first non-empty part's dictionary — or an overlay over it once a
// value it lacks turned up.
func (m *Merge) column(j int, col []uint32, off int, base *Dict, parts []*Relation) (*Dict, error) {
	d := base // what col reads through
	intern := func(v string) uint32 {
		if d == nil {
			d = NewDict()
		}
		h := d.hash(v) // an overlay hashes under its parent's seed
		if id, ok := d.lookup(v, h); ok {
			return id
		}
		if d == base {
			d = overlay(base)
		}
		return d.add(v, h)
	}
	for _, p := range parts {
		n := p.Len()
		if n == 0 {
			continue
		}
		win := col[off : off+n]
		off += n
		if p.lazy == nil && p.enc.Load() == nil {
			for i, t := range p.tuples {
				win[i] = intern(t[j])
			}
			continue
		}
		var src []uint32
		var pd *Dict
		if br := p.BackingReader(); br != nil {
			if err := br.ReadColumn(j, 0, win); err != nil {
				return nil, fmt.Errorf("relation: decoding packed column %d: %w", j, err)
			}
			src, pd = win, br.ColumnDict(j)
		} else {
			src, pd = p.Encoded().Column(j)
		}
		if d == nil {
			base, d = pd, pd
		}
		if pd == base {
			copy(win, src)
			continue
		}
		m.rn.Start(pd)
		if err := m.rn.Translate(win, src, intern); err != nil {
			return nil, fmt.Errorf("relation: column %d: %w", j, err)
		}
	}
	return d, nil
}

// mergePoolMax bounds the Merges a MergePool keeps: a site runs about
// as many checks and extracts at once as its driver's workers.
const mergePoolMax = 4

// MergePool is a bounded free list of Merges. Unlike a sync.Pool, which
// every collection empties, it keeps up to mergePoolMax of them across
// collections, each shrunk as it comes back (Shrink), so a site's
// steady state regrows no buffer. The zero value is ready to use; it is
// safe for concurrent use.
type MergePool struct {
	mu   sync.Mutex
	free []*Merge
}

// Get returns the kept Merge with the largest buffer — the one least
// likely to regrow — or a fresh one when none is kept.
func (p *MergePool) Get() *Merge {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return new(Merge)
	}
	k := 0
	for i, m := range p.free {
		if cap(m.ids) > cap(p.free[k].ids) {
			k = i
		}
	}
	m := p.free[k]
	p.free = slices.Delete(p.free, k, k+1)
	return m
}

// Put shrinks m and keeps it unless the list is full.
func (p *MergePool) Put(m *Merge) {
	m.Shrink()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < mergePoolMax {
		p.free = append(p.free, m)
	}
}

// Shrink drops the ID buffer if it grew past mergeShrinkIDs and resets
// the renumbering (Renumber.Reset); MergePool.Put calls it.
func (m *Merge) Shrink() {
	if cap(m.ids) > mergeShrinkIDs {
		m.ids = nil
	}
	m.rn.Reset()
}
