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

// FromSharedColumns builds a relation over already-interned columns:
// the ID vectors index into the given live dictionaries, which the new
// relation shares rather than copies (IDs stay valid, merely sparse —
// the same deal ProjectRows makes). The result is lazy: the check
// kernels consume it entirely in ID space, so string tuples (sharing
// the dictionaries' values) materialize only if something asks. This
// is how a store-backed fragment hands out extracts without re-hashing
// a single value — or, now, materializing one.
func FromSharedColumns(s *Schema, dicts []*Dict, cols [][]uint32, rows int) (*Relation, error) {
	arity := s.Arity()
	if len(cols) != arity || len(dicts) != arity {
		return nil, fmt.Errorf("relation: shared-column payload has %d/%d columns, schema %s wants %d",
			len(cols), len(dicts), s.Name(), arity)
	}
	for j := range cols {
		if len(cols[j]) != rows {
			return nil, fmt.Errorf("relation: column %d has %d rows, want %d", j, len(cols[j]), rows)
		}
	}
	out, enc := lazyView(s, rows)
	copy(enc.cols, cols)
	copy(enc.dicts, dicts)
	return out, nil
}
