package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"distcfd/internal/relation"
)

// Packed is a packed relation payload: per-column dictionary sections
// plus raw chunk payloads — the unit the wire ships and receivers
// detect over. Fragment.PackBase builds one by
// sharing a store fragment's own columns (a whole-fragment extract: the
// bytes that cross the wire are the bytes on disk), PackColumns — or
// NewPayload and PackColumn, a column at a time — by re-encoding a
// scattered row selection (the usual σ-block extract) against fresh
// first-occurrence dictionaries, NewPacked by adopting a peer's parts.
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
		if err := c.checkChunks(); err != nil {
			return nil, fmt.Errorf("colstore: NewPacked column %d: %w", j, err)
		}
	}
	return p, nil
}

// newPacked returns a payload of n columns (one allocation), parts unset.
func newPacked(rows, chunkRows, n int) *Packed {
	p := &Packed{columns{rows: rows, cols: make([]*column, n)}, chunkRows}
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
	p := &Packed{columns: columns{rows: f.rows, cols: make([]*column, len(cols))}}
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
// payload: NewPayload, then PackColumn for every column. cols hold IDs
// into the parallel source dicts; rows is the selection's length. The
// inputs are only read, so mmap-backed dictionaries work as sources.
func PackColumns(dicts []*relation.Dict, cols [][]uint32, rows int) (*Packed, error) {
	if len(dicts) != len(cols) {
		return nil, fmt.Errorf("colstore: PackColumns has %d dicts for %d columns", len(dicts), len(cols))
	}
	p := NewPayload(rows, len(cols))
	for j, col := range cols {
		if err := p.PackColumn(j, dicts[j], col); err != nil {
			return nil, fmt.Errorf("colstore: PackColumns column %d: %w", j, err)
		}
	}
	return p, nil
}

// NewPayload returns a payload of rows rows and n columns for
// PackColumn to fill, one column at a time, in DefaultChunkRows chunks.
// It is safe for readers once every column is packed.
func NewPayload(rows, n int) *Packed { return newPacked(rows, DefaultChunkRows, n) }

// PackColumn encodes ids, column j's IDs into the source dictionary
// dict, as column j of p: the IDs are renumbered onto a fresh
// first-occurrence dictionary (relation.Renumber, so the bit width
// reflects the selection's cardinality, not the source's) a chunk at a
// time and encoded. The renumbering counts each compact ID, so the
// column prices itself (PayloadSizes) as it is packed. ids is only
// read. The renumbering, the chunk buffer and the encoded bytes are
// pooled scratch: what the payload keeps is copied out once, at its
// exact size.
func (p *Packed) PackColumn(j int, dict *relation.Dict, ids []uint32) error {
	return p.packColumn(j, dict, ids, nil)
}

// packColumn is PackColumn pricing row i as w[i] copies of itself
// (relation.Renumber.Weigh); w nil prices every row once.
func (p *Packed) packColumn(j int, dict *relation.Dict, ids, w []uint32) error {
	c := p.cols[j]
	if len(ids) != c.rows {
		return fmt.Errorf("colstore: packing %d rows into a %d-row column", len(ids), c.rows)
	}
	s := getScratch(c.chunkRows)
	defer putScratch(s)
	s.Start(dict)
	s.enc, s.offs = s.enc[:0], s.offs[:0]
	for lo := 0; lo < c.rows; lo += c.chunkRows {
		n := min(c.chunkRows, c.rows-lo)
		if err := s.Map(s.ids[:n], ids[lo:lo+n]); err != nil {
			return err
		}
		if w != nil {
			s.Weigh(s.ids[:n], w[lo:lo+n])
		}
		s.offs = append(s.offs, len(s.enc))
		s.enc, _, _ = EncodeChunk(s.enc, s.ids[:n])
	}
	s.offs = append(s.offs, len(s.enc))
	enc := make([]byte, len(s.enc))
	copy(enc, s.enc)
	c.Chunks = make([][]byte, len(s.offs)-1)
	for k := range c.Chunks {
		c.Chunks[k] = enc[s.offs[k]:s.offs[k+1]:s.offs[k+1]]
	}
	c.Dict = AppendValues(nil, s.Len(), s.Val)
	raw, encoded := s.Sizes()
	c.sizeOnce.Do(func() { c.raw, c.encoded = raw, encoded })
	return nil
}

// EncodeCounts codes a count column as it ships beside a payload's
// columns, whatever their chunking: one section of DefaultChunkRows
// counts a chunk in the chunk codec, each chunk behind its uvarint
// length, copied out in one allocation.
func EncodeCounts(counts []uint32) []byte {
	s := getScratch(0)
	defer putScratch(s)
	s.enc = s.enc[:0]
	for lo := 0; lo < len(counts); lo += DefaultChunkRows {
		at := len(s.enc)
		s.enc, _, _ = EncodeChunk(s.enc, counts[lo:min(lo+DefaultChunkRows, len(counts))])
		var hdr [binary.MaxVarintLen64]byte
		h := binary.PutUvarint(hdr[:], uint64(len(s.enc)-at))
		s.enc = append(s.enc, hdr[:h]...)
		copy(s.enc[at+h:], s.enc[at:len(s.enc)-h])
		copy(s.enc[at:], hdr[:h])
	}
	return slices.Clone(s.enc)
}

// countChunks calls f with each framed chunk of a count section for
// rows rows and the rows it covers, and refuses a section that frames
// fewer chunks, or more bytes, than those rows take.
func countChunks(section []byte, rows int, f func(payload []byte, lo, hi int) error) error {
	for lo := 0; lo < rows; lo += DefaultChunkRows {
		n, w := binary.Uvarint(section)
		if w <= 0 || n > uint64(len(section)-w) {
			return fmt.Errorf("colstore: count section truncated at row %d of %d", lo, rows)
		}
		if err := f(section[w:w+int(n)], lo, min(lo+DefaultChunkRows, rows)); err != nil {
			return fmt.Errorf("colstore: count chunk at row %d: %w", lo, err)
		}
		section = section[w+int(n):]
	}
	if len(section) != 0 {
		return fmt.Errorf("colstore: count section has %d bytes past its %d rows", len(section), rows)
	}
	return nil
}

// sumCounts verifies a count section of rows rows that a peer sent —
// the framing, every chunk well formed and covering its span, and the
// counts themselves (relation.CheckCounts: none zero, their sum at most
// relation.MaxBag) — and returns the counts' sum. It decodes a chunk at
// a time into pooled scratch: rows is the peer's word, and nothing is
// allocated for it.
func sumCounts(section []byte, rows int) (bag int, err error) {
	s := getScratch(DefaultChunkRows)
	defer putScratch(s)
	err = countChunks(section, rows, func(payload []byte, lo, hi int) error {
		ids := s.ids[:hi-lo]
		err := checkChunk(payload, hi-lo, math.MaxInt) // CheckCounts bounds the values
		if err == nil {
			err = DecodeChunk(payload, ids)
		}
		n := 0
		if err == nil {
			n, err = relation.CheckCounts(ids, len(ids))
		}
		if bag += n; err == nil && bag > relation.MaxBag {
			err = fmt.Errorf("counts sum past %d", relation.MaxBag)
		}
		return err
	})
	return bag, err
}

// DecodeCounts decodes the count column of rows rows that EncodeCounts
// coded, once sumCounts has verified it.
func DecodeCounts(section []byte, rows int) ([]uint32, error) {
	if _, err := sumCounts(section, rows); err != nil {
		return nil, err
	}
	counts := make([]uint32, rows)
	return counts, countChunks(section, rows, func(payload []byte, lo, hi int) error {
		return DecodeChunk(payload, counts[lo:hi])
	})
}

// SetCounts makes p a counted payload whose count column ships as
// section (EncodeCounts), verifying it (sumCounts) — the adoption of a
// peer's count column beside its columns — and decoding it only if
// something asks (Counts). Call it before p is shared.
func (p *Packed) SetCounts(section []byte) error {
	bag, err := sumCounts(section, p.rows)
	if err != nil {
		return err
	}
	p.countSection, p.bag = section, bag
	return nil
}

// scratch is what packing or pricing a column reuses: the renumbering,
// one chunk's IDs, the column's encoded bytes and its chunk offsets.
// Pooled (scratches); putScratch resets it, so the pool pins no
// dictionary or value.
type scratch struct {
	relation.Renumber
	ids  []uint32
	enc  []byte
	offs []int
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns pooled scratch whose ids hold at least n IDs.
func getScratch(n int) *scratch {
	s := scratches.Get().(*scratch)
	if len(s.ids) < n {
		s.ids = make([]uint32, n)
	}
	return s
}

func putScratch(s *scratch) {
	s.Reset()
	scratches.Put(s)
}
