package relation

import "fmt"

// ColumnReader is the engine's storage seam: anything that can hand
// out dictionary-encoded column IDs row-range by row-range. The
// in-memory Encoded view satisfies it trivially (the kernel reads its
// column slices directly); everything else is a PackedColumnReader
// (packed.go) — a colstore fragment on disk, a payload adopted off the
// wire — whose columns the kernel decodes whole through ReadColumn:
// that is what lets detection run over data that never materializes
// as []Tuple.
//
// Implementations must be safe for concurrent readers.
type ColumnReader interface {
	// Rows returns the row count.
	Rows() int
	// NumColumns returns the arity.
	NumColumns() int
	// ColumnDict returns column i's dictionary (read-only).
	ColumnDict(i int) *Dict
	// ReadColumn fills dst with column i's IDs for rows
	// [lo, lo+len(dst)).
	ReadColumn(i, lo int, dst []uint32) error
}

// NumColumns returns the arity; with ColumnDict and ReadColumn it
// makes *Encoded a ColumnReader.
func (e *Encoded) NumColumns() int { return e.arity }

// ColumnDict returns column i's dictionary, building the column on
// first use.
func (e *Encoded) ColumnDict(i int) *Dict {
	_, d := e.Column(i)
	return d
}

// ReadColumn copies column i's IDs for rows [lo, lo+len(dst)) into
// dst. Engine code holding a concrete *Encoded should use Column and
// skip the copy; this is the one shape every ColumnReader shares.
func (e *Encoded) ReadColumn(i, lo int, dst []uint32) error {
	col, _ := e.Column(i)
	if lo < 0 || lo+len(dst) > len(col) {
		return fmt.Errorf("relation: ReadColumn rows [%d,%d) out of range [0,%d)", lo, lo+len(dst), len(col))
	}
	copy(dst, col[lo:])
	return nil
}

var _ ColumnReader = (*Encoded)(nil)
