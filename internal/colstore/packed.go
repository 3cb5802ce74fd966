package colstore

import (
	"fmt"
	"sync"

	"distcfd/internal/relation"
)

// Packed is a self-contained packed relation payload: per-column
// dictionary sections plus raw chunk payloads with per-chunk ID
// bounds — the unit wire v6 ships and receivers detect over. It is
// built two ways:
//
//   - Fragment.PackBase slices a store fragment's dictionary sections
//     and chunk payloads straight off the mmap for a whole-fragment
//     extract — nothing is decoded or re-encoded, so the bytes that
//     cross the wire are the bytes on disk (the payload slices alias
//     the mapping and are only valid while the Fragment stays open);
//   - PackColumns re-encodes a scattered row selection (the usual
//     σ-block extract) against fresh first-occurrence dictionaries,
//     so the bit width shrinks to the block's own cardinality instead
//     of the fragment's.
//
// Packed implements the relation reader seams, so a receiver detects
// over shipped chunks directly: per-chunk min/max bounds keep working
// for constant-scan skipping, and nothing materializes as []uint32
// columns unless a consumer asks. Safe for concurrent readers.
type Packed struct {
	rows      int
	chunkRows int
	cols      []packedCol
	size      int64
}

type packedCol struct {
	dictSec []byte
	chunks  [][]byte
	minID   []uint32
	maxID   []uint32

	dictOnce sync.Once
	dict     *relation.Dict
	dictErr  error
}

var (
	_ relation.ColumnReader        = (*Packed)(nil)
	_ relation.ChunkedColumnReader = (*Packed)(nil)
	_ relation.PackedColumnReader  = (*Packed)(nil)
)

// PackedColumn is one column's parts for NewPacked — the shape the
// wire layer reassembles a received payload from.
type PackedColumn struct {
	// Dict is the encoded dictionary section (EncodeDictSection).
	Dict []byte
	// Chunks holds the raw chunk payloads in row order.
	Chunks [][]byte
	// MinIDs and MaxIDs are the per-chunk ID bounds, parallel to
	// Chunks.
	MinIDs, MaxIDs []uint32
}

// NewPacked assembles a Packed from per-column parts — the adoption
// point of bytes this process did not write (a wire receive), so
// everything a later read would trust is verified here, once: every
// column has ceil(rows/chunkRows) chunks with matching bounds slices,
// every dictionary section decodes, and every chunk payload is
// well-formed, covers exactly its span, and holds only IDs inside its
// shipped [min, max] bounds, which in turn fit the dictionary. A Packed
// that NewPacked returned cannot fail a decode or hand out an ID its
// dictionary lacks; a malformed part is an error here, never a panic
// later.
func NewPacked(rows, chunkRows int, cols []PackedColumn) (*Packed, error) {
	if rows < 0 {
		return nil, fmt.Errorf("colstore: NewPacked with %d rows", rows)
	}
	numChunks := 0
	if rows > 0 {
		if chunkRows <= 0 {
			return nil, fmt.Errorf("colstore: NewPacked with chunkRows %d for %d rows", chunkRows, rows)
		}
		numChunks = (rows-1)/chunkRows + 1 // overflow-free: rows is the peer's word
	}
	p := &Packed{rows: rows, chunkRows: chunkRows, cols: make([]packedCol, len(cols))}
	for j, c := range cols {
		if len(c.Chunks) != numChunks || len(c.MinIDs) != numChunks || len(c.MaxIDs) != numChunks {
			return nil, fmt.Errorf("colstore: NewPacked column %d has %d/%d/%d chunks, want %d",
				j, len(c.Chunks), len(c.MinIDs), len(c.MaxIDs), numChunks)
		}
		p.cols[j] = packedCol{dictSec: c.Dict, chunks: c.Chunks, minID: c.MinIDs, maxID: c.MaxIDs}
		p.size += packedColSize(c.Dict, c.Chunks)
		dict, err := p.Dict(j)
		if err != nil {
			return nil, err
		}
		for k, payload := range c.Chunks {
			lo, hi := p.ChunkSpan(j, k)
			if int64(c.MaxIDs[k]) >= int64(dict.Len()) {
				return nil, fmt.Errorf("colstore: packed column %d chunk %d: max ID %d outside dictionary of %d values",
					j, k, c.MaxIDs[k], dict.Len())
			}
			if err := checkChunk(payload, hi-lo, c.MinIDs[k], c.MaxIDs[k]); err != nil {
				return nil, fmt.Errorf("colstore: packed column %d chunk %d: %w", j, k, err)
			}
		}
	}
	return p, nil
}

// packedColSize is the modeled wire cost of one packed column: its
// dictionary section, its chunk payloads, and 8 bytes of min/max ID
// bounds per chunk.
func packedColSize(dictSec []byte, chunks [][]byte) int64 {
	n := int64(len(dictSec)) + 8*int64(len(chunks))
	for _, c := range chunks {
		n += int64(len(c))
	}
	return n
}

// Column returns column j's parts — the inverse of NewPacked, used by
// the wire layer to serialize a payload it is shipping onward.
func (p *Packed) Column(j int) PackedColumn {
	c := &p.cols[j]
	return PackedColumn{Dict: c.dictSec, Chunks: c.chunks, MinIDs: c.minID, MaxIDs: c.maxID}
}

// ChunkRows returns the uniform rows-per-chunk (the last chunk may be
// shorter).
func (p *Packed) ChunkRows() int { return p.chunkRows }

// Rows returns the row count.
func (p *Packed) Rows() int { return p.rows }

// NumColumns returns the arity.
func (p *Packed) NumColumns() int { return len(p.cols) }

// PackedSize returns the payload's modeled wire size: dictionary
// sections plus chunk payloads plus 8 bounds bytes per chunk. This is
// the figure dist.RelationBytes charges when packed shipping wins.
func (p *Packed) PackedSize() int64 { return p.size }

// Dict returns column i's dictionary, decoding its section on the
// first call.
func (p *Packed) Dict(i int) (*relation.Dict, error) {
	c := &p.cols[i]
	c.dictOnce.Do(func() {
		vals, err := DecodeDictSection(c.dictSec)
		if err != nil {
			c.dictErr = fmt.Errorf("colstore: packed dict %d: %w", i, err)
			return
		}
		d, err := relation.NewDictFromVals(vals)
		if err != nil {
			c.dictErr = fmt.Errorf("colstore: packed dict %d: %w", i, err)
			return
		}
		c.dict = d
	})
	return c.dict, c.dictErr
}

// ColumnDict is the relation.ColumnReader form of Dict; like
// Fragment.ColumnDict it panics if the section is malformed, because
// the interface has no error channel.
func (p *Packed) ColumnDict(i int) *relation.Dict {
	d, err := p.Dict(i)
	if err != nil {
		panic(err)
	}
	return d
}

// ColumnChunks returns column i's chunk count.
func (p *Packed) ColumnChunks(i int) (int, error) { return len(p.cols[i].chunks), nil }

// ChunkSpan returns the row range [lo, hi) chunk k covers.
func (p *Packed) ChunkSpan(i, k int) (lo, hi int) {
	lo = k * p.chunkRows
	hi = lo + p.chunkRows
	if hi > p.rows {
		hi = p.rows
	}
	return lo, hi
}

// ChunkIDBounds returns the min and max ID present in chunk k of
// column i.
func (p *Packed) ChunkIDBounds(i, k int) (minID, maxID uint32) {
	c := &p.cols[i]
	return c.minID[k], c.maxID[k]
}

// ChunkPayload returns chunk k of column i's raw encoded bytes.
func (p *Packed) ChunkPayload(i, k int) ([]byte, error) { return p.cols[i].chunks[k], nil }

// ReadColumn decodes column i's IDs for rows [lo, lo+len(dst)) into
// dst.
func (p *Packed) ReadColumn(i, lo int, dst []uint32) error {
	if lo < 0 || lo+len(dst) > p.rows {
		return fmt.Errorf("colstore: ReadColumn rows [%d,%d) out of range [0,%d)", lo, lo+len(dst), p.rows)
	}
	if len(dst) == 0 {
		return nil
	}
	c := &p.cols[i]
	var scratch []uint32
	for len(dst) > 0 {
		k := lo / p.chunkRows
		clo, chi := p.ChunkSpan(i, k)
		n := chi - lo
		if n > len(dst) {
			n = len(dst)
		}
		if lo == clo && n == chi-clo {
			if err := DecodeChunk(c.chunks[k], dst[:n]); err != nil {
				return err
			}
		} else {
			if scratch == nil {
				scratch = make([]uint32, p.chunkRows)
			}
			if err := DecodeChunk(c.chunks[k], scratch[:chi-clo]); err != nil {
				return err
			}
			copy(dst[:n], scratch[lo-clo:lo-clo+n])
		}
		dst = dst[n:]
		lo += n
	}
	return nil
}

// PackBase packs a whole-fragment extract of the given columns by
// slicing dictionary sections and chunk payloads straight off the
// file mapping: zero decode, zero re-encode. Sections are
// checksum-verified first (once per column, shared with the read
// path). The returned payload aliases the mapping and must not
// outlive the Fragment.
func (f *Fragment) PackBase(cols []int) (*Packed, error) {
	p := &Packed{rows: f.rows, cols: make([]packedCol, len(cols))}
	for n, j := range cols {
		if err := f.verify(j); err != nil {
			return nil, err
		}
		s := &f.segs[j]
		if n == 0 {
			p.chunkRows = s.chunkRows
		} else if s.chunkRows != p.chunkRows {
			return nil, fmt.Errorf("colstore: %s: column %d chunkRows %d differs from %d",
				f.path, j, s.chunkRows, p.chunkRows)
		}
		ld := &f.dicts[j]
		if _, err := f.Dict(j); err != nil { // checksum-verifies the section
			return nil, err
		}
		pc := &p.cols[n] // built in place: packedCol carries a sync.Once
		pc.dictSec = f.section(ld.entry)
		pc.chunks = make([][]byte, len(s.dir))
		pc.minID = make([]uint32, len(s.dir))
		pc.maxID = make([]uint32, len(s.dir))
		for k := range s.dir {
			pc.chunks[k] = f.data[s.chunkOffs[k] : s.chunkOffs[k]+uint64(s.dir[k].length)]
			pc.minID[k], pc.maxID[k] = s.dir[k].minID, s.dir[k].maxID
		}
		p.size += packedColSize(pc.dictSec, pc.chunks)
	}
	return p, nil
}

// PackColumns re-encodes a projected row selection as a packed
// payload: each column's IDs are remapped onto a fresh
// first-occurrence dictionary (so the bit width reflects the
// selection's cardinality, not the source fragment's) and encoded in
// DefaultChunkRows chunks. cols hold IDs into the parallel source
// dicts; rows is the selection's length. The inputs are only read, so
// mmap-backed dictionaries work as sources.
func PackColumns(dicts []*relation.Dict, cols [][]uint32, rows int) (*Packed, error) {
	if len(dicts) != len(cols) {
		return nil, fmt.Errorf("colstore: PackColumns has %d dicts for %d columns", len(dicts), len(cols))
	}
	chunkRows := DefaultChunkRows
	numChunks := 0
	if rows > 0 {
		numChunks = (rows + chunkRows - 1) / chunkRows
	}
	p := &Packed{rows: rows, chunkRows: chunkRows, cols: make([]packedCol, len(cols))}
	buf := make([]uint32, min(rows, chunkRows))
	for j, col := range cols {
		if len(col) != rows {
			return nil, fmt.Errorf("colstore: PackColumns column %d has %d rows, want %d", j, len(col), rows)
		}
		rm := newCompactRemap(dicts[j])
		var enc []byte
		offs := make([]int, 0, numChunks+1)
		pc := &p.cols[j] // built in place: packedCol carries a sync.Once
		pc.chunks = make([][]byte, 0, numChunks)
		pc.minID = make([]uint32, 0, numChunks)
		pc.maxID = make([]uint32, 0, numChunks)
		for base := 0; base < rows; base += chunkRows {
			n := min(chunkRows, rows-base)
			for i := 0; i < n; i++ {
				buf[i] = rm.id(col[base+i])
			}
			offs = append(offs, len(enc))
			var mn, mx uint32
			enc, mn, mx = EncodeChunk(enc, buf[:n])
			pc.minID = append(pc.minID, mn)
			pc.maxID = append(pc.maxID, mx)
		}
		offs = append(offs, len(enc))
		for k := 0; k < numChunks; k++ {
			pc.chunks = append(pc.chunks, enc[offs[k]:offs[k+1]:offs[k+1]])
		}
		pc.dictSec = EncodeDictSection(nil, rm.vals)
		p.size += packedColSize(pc.dictSec, pc.chunks)
	}
	return p, nil
}

// compactRemap interns source-dictionary IDs into a dense
// first-occurrence ID space, the same order relation.Encoded assigns
// when building columns in memory — which is what keeps packed and
// v5-shipped blocks byte-comparable downstream.
type compactRemap struct {
	src   *relation.Dict
	table []uint32          // src ID -> compact ID, ^0 when unseen
	m     map[uint32]uint32 // fallback for very sparse selections
	vals  []string
}

func newCompactRemap(src *relation.Dict) *compactRemap {
	rm := &compactRemap{src: src}
	if n := src.Len(); n <= 1<<20 {
		rm.table = make([]uint32, n)
		for i := range rm.table {
			rm.table[i] = ^uint32(0)
		}
	} else {
		rm.m = make(map[uint32]uint32)
	}
	return rm
}

func (rm *compactRemap) id(src uint32) uint32 {
	if rm.table != nil {
		if v := rm.table[src]; v != ^uint32(0) {
			return v
		}
		v := uint32(len(rm.vals))
		rm.table[src] = v
		rm.vals = append(rm.vals, rm.src.Val(src))
		return v
	}
	if v, ok := rm.m[src]; ok {
		return v
	}
	v := uint32(len(rm.vals))
	rm.m[src] = v
	rm.vals = append(rm.vals, rm.src.Val(src))
	return v
}
