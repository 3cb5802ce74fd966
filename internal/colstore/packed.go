package colstore

import (
	"fmt"
	"sync"

	"distcfd/internal/relation"
)

// Packed is a packed relation payload: per-column dictionary sections
// plus raw chunk payloads — the unit the wire ships and receivers
// detect over. Fragment.PackBase builds one by
// sharing a store fragment's own columns (a whole-fragment extract: the
// bytes that cross the wire are the bytes on disk), PackColumns by
// re-encoding a scattered row selection (the usual σ-block extract)
// against fresh first-occurrence dictionaries, NewPacked by adopting a
// peer's parts.
//
// A receiver keeps shipped chunks as they arrived: a column decodes
// only when a consumer reads it. Safe for concurrent readers.
type Packed struct {
	columns
	chunkRows int
}

var _ relation.PackedColumnReader = (*Packed)(nil)

// NewPacked assembles a Packed from per-column parts — the adoption
// point of bytes this process did not write (a wire receive), so
// everything a later read would trust is verified here, once:
// chunkRows is at most MaxChunkRows, every column has
// ceil(rows/chunkRows) chunks, every dictionary section decodes, and
// every chunk payload is well-formed, covers exactly its span, and
// holds only IDs its dictionary has. A Packed that NewPacked returned
// cannot fail a decode or hand out an ID its dictionary lacks; a
// malformed part is an error here, never a panic later.
func NewPacked(rows, chunkRows int, cols []PackedColumn) (*Packed, error) {
	if rows < 0 {
		return nil, fmt.Errorf("colstore: NewPacked with %d rows", rows)
	}
	numChunks := 0
	if rows > 0 {
		if chunkRows <= 0 || chunkRows > MaxChunkRows {
			return nil, fmt.Errorf("colstore: NewPacked with chunkRows %d for %d rows (want 1..%d)", chunkRows, rows, MaxChunkRows)
		}
		numChunks = (rows-1)/chunkRows + 1 // overflow-free: rows is the peer's word
	}
	p := newPacked(rows, chunkRows, len(cols))
	for j, parts := range cols {
		if len(parts.Chunks) != numChunks {
			return nil, fmt.Errorf("colstore: NewPacked column %d has %d chunks, want %d", j, len(parts.Chunks), numChunks)
		}
		c := p.cols[j]
		c.PackedColumn = parts
		dict, err := c.dictionary()
		if err != nil {
			return nil, fmt.Errorf("colstore: NewPacked column %d: %w", j, err)
		}
		for k, payload := range c.Chunks {
			lo, hi := c.chunkSpan(k)
			if err := checkChunk(payload, hi-lo, dict.Len()); err != nil {
				return nil, fmt.Errorf("colstore: packed column %d chunk %d: %w", j, k, err)
			}
		}
	}
	return p, nil
}

// newPacked returns a payload of n columns (one allocation), parts unset.
func newPacked(rows, chunkRows, n int) *Packed {
	p := &Packed{columns{rows, make([]*column, n)}, chunkRows}
	slab := make([]column, n)
	for j := range slab {
		slab[j].rows, slab[j].chunkRows, slab[j].name = rows, chunkRows, "packed column"
		p.cols[j] = &slab[j]
	}
	return p
}

// Column returns column j's parts — the inverse of NewPacked, used by
// the wire layer to serialize a payload it is shipping onward.
func (p *Packed) Column(j int) PackedColumn { return p.cols[j].PackedColumn }

// ChunkRows returns the rows per chunk (the last chunk may be shorter).
func (p *Packed) ChunkRows() int { return p.chunkRows }

// PackBase packs a whole-fragment extract of the given columns by
// selecting them: the payload shares the fragment's own columns —
// mapped dictionary sections and chunk payloads, zero decode, zero
// re-encode — once both sections of each are checksum-verified. It
// aliases the mapping and must not outlive the Fragment.
func (f *Fragment) PackBase(cols []int) (*Packed, error) {
	p := &Packed{columns: columns{f.rows, make([]*column, len(cols))}}
	for n, j := range cols {
		c, err := f.col(j)
		if err != nil {
			return nil, err
		}
		if _, err := c.dictionary(); err != nil { // the section ships as is
			return nil, err
		}
		if n > 0 && c.chunkRows != p.chunkRows {
			return nil, fmt.Errorf("colstore: %s: chunkRows %d differs from %d", c.name, c.chunkRows, p.chunkRows)
		}
		p.chunkRows = c.chunkRows
		p.cols[n] = c
	}
	return p, nil
}

// PackColumns re-encodes a projected row selection as a packed
// payload: each column's IDs are remapped onto a fresh
// first-occurrence dictionary (so the bit width reflects the
// selection's cardinality, not the source fragment's) and encoded in
// DefaultChunkRows chunks. cols hold IDs into the parallel source
// dicts; rows is the selection's length. The inputs are only read, so
// mmap-backed dictionaries work as sources. Each column counts its
// compact IDs as it remaps them, so the payload's PayloadSizes costs
// nothing more. The chunk buffer, the remap table and the encoded
// bytes are pooled scratch: what the payload keeps is copied out once,
// at its exact size.
func PackColumns(dicts []*relation.Dict, cols [][]uint32, rows int) (*Packed, error) {
	if len(dicts) != len(cols) {
		return nil, fmt.Errorf("colstore: PackColumns has %d dicts for %d columns", len(dicts), len(cols))
	}
	chunkRows := DefaultChunkRows
	numChunks := 0
	if rows > 0 {
		numChunks = (rows + chunkRows - 1) / chunkRows
	}
	p := newPacked(rows, chunkRows, len(cols))
	rm := remaps.Get().(*compactRemap)
	defer func() { rm.reset(); remaps.Put(rm) }()
	offs := make([]int, 0, numChunks+1)
	for j, col := range cols {
		if len(col) != rows {
			return nil, fmt.Errorf("colstore: PackColumns column %d has %d rows, want %d", j, len(col), rows)
		}
		rm.start(dicts[j])
		rm.enc, offs = rm.enc[:0], offs[:0]
		for base := 0; base < rows; base += chunkRows {
			n := min(chunkRows, rows-base)
			ids := rm.ids[:n]
			for i, src := range col[base : base+n] {
				ids[i] = rm.id(src)
			}
			offs = append(offs, len(rm.enc))
			rm.enc, _, _ = EncodeChunk(rm.enc, ids)
		}
		offs = append(offs, len(rm.enc))
		enc := make([]byte, len(rm.enc))
		copy(enc, rm.enc)
		c := p.cols[j]
		c.Chunks = make([][]byte, numChunks)
		for k := range c.Chunks {
			c.Chunks[k] = enc[offs[k]:offs[k+1]:offs[k+1]]
		}
		c.Dict = EncodeDictSection(nil, rm.vals)
		raw, encoded := wireSizes(rm.counts, func(k uint32) string { return rm.vals[k] }, rows)
		c.sizeOnce.Do(func() { c.raw, c.encoded = raw, encoded })
		rm.reset()
	}
	return p, nil
}

// compactRemap interns source-dictionary IDs into a dense
// first-occurrence ID space, the same order relation.Encoded assigns
// when building columns in memory — which is what keeps packed and
// dict+ID-shipped blocks byte-comparable downstream. It counts the rows
// of every compact ID, and carries PackColumns' other scratch: one
// chunk's compact IDs and the column's encoded bytes. Pooled (remaps):
// reset clears the table through the source IDs it touched.
type compactRemap struct {
	src    *relation.Dict
	small  bool              // src has at most maxRemapTable values: use table
	table  []uint32          // src ID -> compact ID + 1, 0 when unseen
	m      map[uint32]uint32 // for sources above maxRemapTable values
	srcs   []uint32          // compact ID -> src ID
	counts []uint32          // compact ID -> rows
	vals   []string          // compact ID -> value
	ids    []uint32
	enc    []byte
}

// maxRemapTable is the largest source dictionary remapped through a
// table; a larger one (a sparse selection of a huge column) uses the map.
const maxRemapTable = 1 << 20

var remaps = sync.Pool{New: func() any {
	return &compactRemap{m: map[uint32]uint32{}, ids: make([]uint32, DefaultChunkRows)}
}}

// start begins a column whose IDs index src.
func (rm *compactRemap) start(src *relation.Dict) {
	n := src.Len()
	rm.src, rm.small = src, n <= maxRemapTable
	if rm.small && n > len(rm.table) {
		rm.table = make([]uint32, n)
	}
}

// reset forgets the column: the table or map entries it set, the
// lists (values cleared, so the pool pins none).
func (rm *compactRemap) reset() {
	for _, s := range rm.srcs {
		if rm.small {
			rm.table[s] = 0
		} else {
			delete(rm.m, s)
		}
	}
	clear(rm.vals)
	rm.src, rm.small, rm.srcs, rm.counts, rm.vals = nil, false, rm.srcs[:0], rm.counts[:0], rm.vals[:0]
}

func (rm *compactRemap) id(src uint32) uint32 {
	var v uint32
	if rm.small {
		v = rm.table[src]
	} else {
		v = rm.m[src]
	}
	if v == 0 {
		v = uint32(len(rm.srcs)) + 1
		if rm.small {
			rm.table[src] = v
		} else {
			rm.m[src] = v
		}
		rm.srcs = append(rm.srcs, src)
		rm.counts = append(rm.counts, 0)
		rm.vals = append(rm.vals, rm.src.Val(src))
	}
	rm.counts[v-1]++
	return v - 1
}
