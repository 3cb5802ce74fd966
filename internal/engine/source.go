package engine

import (
	"fmt"
	"slices"

	"distcfd/internal/colstore"
	"distcfd/internal/relation"
)

// The column source: where the IDs of one kernel call live, and the
// only thing the kernel knows about storage. A source is a list of row
// spans plus window, which hands back one column's IDs for one span.
// There are two kinds:
//
//   - a materialized *relation.Encoded is one whole-column span whose
//     windows are the columns' own slices — zero copy, nothing
//     allocated — and the only kind of source the kernel row-shards
//     (a sub-range of the span is a sub-slice of the column);
//   - packed chunks, a relation.PackedColumnReader — a colstore
//     fragment on disk, a packed payload adopted off the wire — stream:
//     the reader's chunks are the spans and window decodes into the
//     pooled scratch, so the only full-length allocations are the
//     group-ID vector and the violation bitset (≈4.1 bytes/row) and
//     detection over an mmap'd fragment keeps resident memory far below
//     the data size. Streaming is serial: the spans share one set of
//     decode buffers.
//
// What packed chunks add — ID bounds that rule a chunk out for a
// constant, run-length payloads that resolve a run with one comparison
// — the kernel consults through the source. The fold interns composites
// in row order whatever the span layout, so violations and extracted
// X-patterns are byte-identical across both kinds and every worker
// count; the equivalence table in source_test.go pins that.

// rowSpan is one row range of a source; chunk is the reader's chunk
// index (−1 for the whole-column span of a materialized source).
type rowSpan struct {
	lo, hi, chunk int
}

type source struct {
	r    relation.ColumnReader
	enc  *relation.Encoded           // r, when it is materialized, or
	pk   relation.PackedColumnReader // r, when it is packed chunks
	rows int

	spans   []rowSpan
	spanMax int // widest span window decodes; 0 for a materialized source
}

// storage picks where d's column IDs are read from: the packed payload
// that IS its row storage when it has one (a wire receive, see
// relation.FromPackedReader) — streamed with chunk skipping, never
// forced to materialize — and its encoded view otherwise.
func storage(d *relation.Relation) relation.ColumnReader {
	if br := d.BackingReader(); br != nil {
		return br
	}
	return d.Encoded()
}

// bind points the source at r, reusing the span list's capacity. This
// is where materialized and streamed part ways; nothing downstream
// asks again.
func (src *source) bind(r relation.ColumnReader) error {
	*src = source{r: r, rows: r.Rows(), spans: src.spans[:0]}
	switch r := r.(type) {
	case *relation.Encoded:
		src.enc = r
		src.spans = append(src.spans, rowSpan{lo: 0, hi: src.rows, chunk: -1})
	case relation.PackedColumnReader:
		src.pk = r
		if r.NumColumns() == 0 {
			return nil // no column to chunk by, and none to read
		}
		n, err := r.ColumnChunks(0)
		if err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			lo, hi := r.ChunkSpan(0, k)
			src.spans = append(src.spans, rowSpan{lo: lo, hi: hi, chunk: k})
			src.spanMax = max(src.spanMax, hi-lo)
		}
	default:
		return fmt.Errorf("engine: column reader %T is neither materialized nor packed chunks", r)
	}
	return nil
}

// minShardRows is the smallest per-shard row count worth a goroutine:
// below it the fan-out overhead exceeds the scan itself.
const minShardRows = 4096

// shards clamps a worker budget to what the source can use: row shards
// of the one whole-column span when it is materialized — as many as its
// rows can usefully feed — none when it streams.
func (src *source) shards(workers int) int {
	if src.enc == nil {
		return 1
	}
	return max(1, min(workers, (src.rows+minShardRows-1)/minShardRows))
}

// window returns column col's IDs for sp: the column's own slice when
// the source is materialized (buf is not touched, so concurrent shards
// may pass the same one), buf filled by the reader's decode otherwise.
// buf must hold at least spanMax IDs.
func (src *source) window(col int, sp rowSpan, buf []uint32) ([]uint32, error) {
	if src.enc != nil {
		c, _ := src.enc.Column(col)
		return c[sp.lo:sp.hi], nil
	}
	buf = buf[:sp.hi-sp.lo]
	return buf, src.r.ReadColumn(col, sp.lo, buf)
}

// aligned reports whether sp is exactly chunk sp.chunk of column col —
// the precondition for trusting that chunk's ID bounds or scanning its
// payload (uniform chunking makes it hold for every column).
func (src *source) aligned(col int, sp rowSpan) bool {
	if src.pk == nil {
		return false
	}
	lo, hi := src.pk.ChunkSpan(col, sp.chunk)
	return lo == sp.lo && hi == sp.hi
}

// constWindows resolves the windows of a constant unit's pattern
// constants over sp, appending them to wins — or reports ok=false when
// no row of sp can match, having decoded as little as possible: a chunk
// whose ID bounds exclude some constant is skipped without decoding any
// column, and a packed chunk of the first constant is scanned run by
// run (constFirstScan), so a miss there skips every other column too.
func (src *source) constWindows(consts []constCol, sp rowSpan, bufs, wins [][]uint32) (_ [][]uint32, ok bool, err error) {
	for _, c := range consts {
		if src.aligned(c.col, sp) {
			if minID, maxID := src.pk.ChunkIDBounds(c.col, sp.chunk); c.id < minID || c.id > maxID {
				return nil, false, nil
			}
		}
	}
	for ci, c := range consts {
		var win []uint32
		if ci == 0 && src.aligned(c.col, sp) {
			win = bufs[0][:sp.hi-sp.lo]
			hit, err := constFirstScan(src.pk, sp, c.col, c.id, win)
			if err != nil || !hit {
				return nil, false, err
			}
		} else if win, err = src.window(c.col, sp, bufs[ci]); err != nil {
			return nil, false, err
		}
		wins = append(wins, win)
	}
	return wins, true, nil
}

// constFirstScan decodes chunk sp.chunk of column col from its packed
// payload into dst while testing for id: an RLE run resolves its whole
// row range with one comparison, a bit-packed run decodes word-at-a-time
// through the codec. Returns whether any row matched. dst must have
// exactly the span's rows.
func constFirstScan(pp relation.PackedColumnReader, sp rowSpan, col int, id uint32, dst []uint32) (bool, error) {
	payload, err := pp.ChunkPayload(col, sp.chunk)
	if err != nil {
		return false, err
	}
	it, err := colstore.Runs(payload)
	if err != nil {
		return false, err
	}
	hit := false
	row := 0
	for it.Next() {
		n := it.Count()
		if row+n > len(dst) {
			return false, fmt.Errorf("engine: chunk run overflows %d-row span", len(dst))
		}
		seg := dst[row : row+n]
		if it.RLE() {
			v := it.ID()
			for i := range seg {
				seg[i] = v
			}
			hit = hit || v == id
		} else {
			if err := it.Decode(seg); err != nil {
				return false, err
			}
			hit = hit || slices.Contains(seg, id)
		}
		row += n
	}
	if err := it.Err(); err != nil {
		return false, err
	}
	if row != len(dst) {
		return false, fmt.Errorf("engine: chunk decoded %d rows, span has %d", row, len(dst))
	}
	return hit, nil
}
