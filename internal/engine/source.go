package engine

import (
	"fmt"

	"distcfd/internal/relation"
)

// The column source: where the IDs of one kernel call live, and the
// only thing the kernel knows about storage. The kernel reads whole ID
// columns and cuts them into row shards:
//
//   - a materialized *relation.Encoded hands out its columns' own
//     slices — zero copy, nothing allocated;
//   - any other relation.ColumnReader — a colstore fragment on disk, a
//     packed payload adopted off the wire — has each column a unit
//     touches decoded once per call, at first touch, through
//     ReadColumn, so a corrupt chunk is a returned error, never a panic.
//
// Both kinds hand the same loops the same IDs, so violations and
// extracted X-patterns are byte-identical across them and every worker
// count; the equivalence table in source_test.go pins that.

type source struct {
	r    relation.ColumnReader
	enc  *relation.Encoded // r, when it is materialized
	rows int
	cols [][]uint32 // r's decoded columns otherwise; nil until loaded
}

// rowSpan is a row range of a source: all of it, or one shard.
type rowSpan struct{ lo, hi int }

// storage picks where d's column IDs are read from: the packed payload
// that IS its row storage when it has one (a wire receive, see
// relation.FromPackedReader), decoded through the reader's error
// channel, and its encoded view otherwise.
func storage(d *relation.Relation) relation.ColumnReader {
	if br := d.BackingReader(); br != nil {
		return br
	}
	return d.Encoded()
}

// bind points the source at r, deciding once whether its columns are
// borrowed (materialized) or decoded.
func (src *source) bind(r relation.ColumnReader) {
	*src = source{r: r, rows: r.Rows()}
	if enc, ok := r.(*relation.Encoded); ok {
		src.enc = enc
	} else {
		src.cols = make([][]uint32, r.NumColumns())
	}
}

// minShardRows is the smallest per-shard row count worth a goroutine:
// below it the fan-out overhead exceeds the scan itself.
const minShardRows = 4096

// shards clamps a worker budget to the row shards the source's rows can
// usefully feed.
func (src *source) shards(workers int) int {
	return max(1, min(workers, (src.rows+minShardRows-1)/minShardRows))
}

// load decodes the given columns of a source that is not materialized,
// each at most once per bind. The kernel loads every column a loop reads
// before the loop fans out, so window never decodes and shards may call
// it concurrently.
func (src *source) load(cols ...int) error {
	if src.enc != nil {
		return nil
	}
	for _, j := range cols {
		if src.cols[j] != nil {
			continue
		}
		c := make([]uint32, src.rows)
		if err := src.r.ReadColumn(j, 0, c); err != nil {
			return fmt.Errorf("engine: column %d: %w", j, err)
		}
		src.cols[j] = c
	}
	return nil
}

// window returns column col's IDs for sp; col must have been loaded.
func (src *source) window(col int, sp rowSpan) []uint32 {
	if src.enc != nil {
		c, _ := src.enc.Column(col)
		return c[sp.lo:sp.hi]
	}
	return src.cols[col][sp.lo:sp.hi]
}
