package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"sync"

	"distcfd/internal/relation"
)

// Sections is a payload in the wire's row or dict+ID form kept as it
// arrived: the values sections, the ID vectors and the count column are
// the received bytes, so a relay forwards them unchanged (Parts) and
// bills the form they came in (Size), as a received Packed is forwarded
// and billed. NewRows and NewDicts verify them in O(bytes) without
// building a dictionary — the framing of every values section, the
// arity, every column as long as the rows, every ID inside its
// dictionary, no dictionary value repeated or unused — so no later read
// can fail. A column's dictionary and IDs are decoded on its first read
// (ReadColumn, ColumnDict), each at most once. Safe for concurrent
// readers.
type Sections struct {
	countColumn
	rows     int
	tuples   []byte     // the row form: every row's values, row-major
	dicts    [][]byte   // the dict+ID form: column j's values in ID order
	ids      [][]uint32 // the dict+ID form: row i's ID in column j
	columnar bool
	arity    int
	values   int64 // each value the sections hold, its length plus one
	colsOnce sync.Once
	cols     []sectionColumn // a reader's decoded columns, made on first use
}

// sectionColumn is one column of a Sections, decoded on first read.
type sectionColumn struct {
	once sync.Once
	ids  []uint32
	dict *relation.Dict
}

var (
	_ relation.Payload        = (*Sections)(nil)
	_ relation.SectionPayload = (*Sections)(nil)
)

// NewRows adopts a row-form section holding rows rows of arity values
// each (EncodeRows). No bytes at all are zero rows.
func NewRows(section []byte, rows, arity int) (*Sections, error) {
	s := &Sections{rows: rows, tuples: section, arity: arity}
	if len(section) == 0 && rows == 0 {
		return s, nil
	}
	n, off, err := sectionCount(section)
	if err != nil {
		return nil, err
	}
	// rows is the peer's word: the arity is checked by division, never
	// by a product that could overflow.
	if rows <= 0 || arity <= 0 || n%uint64(rows) != 0 || n/uint64(rows) != uint64(arity) {
		return nil, fmt.Errorf("colstore: row section of %d values does not hold %d rows of %d", n, rows, arity)
	}
	err = eachValue(section, off, n, func(v []byte) error {
		s.values += int64(len(v)) + 1
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewDicts adopts a dict+ID form of rows rows: dicts[j] column j's
// values section, ids[j] its rows' IDs.
func NewDicts(dicts [][]byte, ids [][]uint32, rows int) (*Sections, error) {
	if len(dicts) != len(ids) || rows < 0 {
		return nil, fmt.Errorf("colstore: dict+ID form of %d rows has %d dictionaries for %d columns", rows, len(dicts), len(ids))
	}
	s := &Sections{rows: rows, dicts: dicts, ids: ids, columnar: true, arity: len(ids)}
	for j := range ids {
		if len(ids[j]) != rows {
			return nil, fmt.Errorf("colstore: column %d has %d rows, header says %d", j, len(ids[j]), rows)
		}
		n, err := checkDict(dicts[j], ids[j])
		if err != nil {
			return nil, fmt.Errorf("colstore: column %d: %w", j, err)
		}
		s.values += n
	}
	return s, nil
}

// SetCounts makes s a counted payload whose count column ships as
// section (EncodeCounts), verified as Packed.SetCounts verifies one.
// Call it before s is shared.
func (s *Sections) SetCounts(section []byte) error {
	if err := s.setCounts(section, s.rows); err != nil {
		return err
	}
	if s.columnar {
		return nil
	}
	// The row form's price weighs each row by its count.
	counts, i := s.Counts(), 0
	s.values = 0
	n, off, _ := sectionCount(s.tuples)
	return eachValue(s.tuples, off, n, func(v []byte) error {
		s.values += int64(counts[i/s.arity]) * (int64(len(v)) + 1)
		i++
		return nil
	})
}

// InRows reports whether s arrived in the row form.
func (s *Sections) InRows() bool { return !s.columnar }

// Tuples returns the rows of a row-form payload, sharing one string as
// DecodeRowSection's do; nil for the dict+ID form.
func (s *Sections) Tuples() []relation.Tuple {
	if s.columnar {
		return nil
	}
	ts, _ := DecodeRowSection(s.tuples, s.rows) // NewRows checked it
	return ts
}

// Size returns the modeled size of the form s arrived in, the integer
// relation.Relation.PayloadSizes returns for that form: in the row form
// each value's length plus one, in the dict+ID form each dictionary
// value's plus four bytes a cell — a counted payload's rows weighed by
// their counts.
func (s *Sections) Size() int64 {
	if !s.columnar {
		return s.values
	}
	bag := int64(s.rows)
	if s.countSection != nil {
		bag = int64(s.bag)
	}
	return s.values + 4*bag*int64(s.arity)
}

// Parts returns the sections as they arrived: the row form's section,
// or the dict+ID form's dictionaries and ID vectors.
func (s *Sections) Parts() (tuples []byte, dicts [][]byte, ids [][]uint32) {
	return s.tuples, s.dicts, s.ids
}

// Rows returns the row count.
func (s *Sections) Rows() int { return s.rows }

// NumColumns returns the arity.
func (s *Sections) NumColumns() int { return s.arity }

// ColumnDict returns column i's dictionary, decoding the column on
// first use.
func (s *Sections) ColumnDict(i int) *relation.Dict { return s.column(i).dict }

// ReadColumn copies column i's IDs for rows [lo, lo+len(dst)) into
// dst: the dict+ID form's as received, the row form's decoding the
// column on first use.
func (s *Sections) ReadColumn(i, lo int, dst []uint32) error {
	if lo < 0 || lo+len(dst) > s.rows {
		return fmt.Errorf("colstore: ReadColumn rows [%d,%d) out of range [0,%d)", lo, lo+len(dst), s.rows)
	}
	if s.columnar {
		copy(dst, s.ids[i][lo:])
	} else {
		copy(dst, s.column(i).ids[lo:])
	}
	return nil
}

// ColumnValues hands to column j's values in place: in the row form
// each row's, k the row, and in the dict+ID form each dictionary value,
// k its ID. v aliases the received section; to copies what it keeps.
func (s *Sections) ColumnValues(j int, to relation.ValueSink) {
	sec, step, k := s.tuples, s.arity, -j
	if s.columnar {
		sec, step, k = s.dicts[j], 1, 0
	}
	if len(sec) == 0 {
		return
	}
	n, off, _ := sectionCount(sec)
	for range n { // verified on adoption
		l, w := binary.Uvarint(sec[off:])
		if off += w; k >= 0 && k%step == 0 {
			to.Value(k/step, sec[off:off+int(l)])
		}
		off += int(l)
		k++
	}
}

// column decodes column j once for a reader that needs its dictionary:
// the dict+ID form's section into a dictionary beside its received
// IDs, or the row form's j-th values interned in row order. Both were
// verified on adoption.
func (s *Sections) column(j int) *sectionColumn {
	s.colsOnce.Do(func() { s.cols = make([]sectionColumn, s.arity) })
	c := &s.cols[j]
	c.once.Do(func() {
		if s.columnar {
			var err error
			if c.dict, err = DecodeDict(s.dicts[j]); err != nil {
				panic(fmt.Errorf("colstore: column %d: %w", j, err)) // NewDicts checked it
			}
			c.ids = s.ids[j]
			return
		}
		c.dict, c.ids = relation.NewDict(), make([]uint32, s.rows)
		s.ColumnValues(j, c)
	})
	return c
}

// Value interns row i's value of a row-form column being decoded.
func (c *sectionColumn) Value(i int, v []byte) { c.ids[i], _ = c.dict.Add(v) }

// eachValue calls f with each of the n values of section b starting at
// off, and refuses a value running past the end or trailing bytes.
func eachValue(b []byte, off int, n uint64, f func(v []byte) error) error {
	for i := range n {
		l, k := binary.Uvarint(b[off:])
		if k <= 0 || l > uint64(len(b)-off-k) {
			return fmt.Errorf("colstore: values section value %d truncated", i)
		}
		if err := f(b[off+k : off+k+int(l)]); err != nil {
			return err
		}
		off += k + int(l)
	}
	if off != len(b) {
		return fmt.Errorf("colstore: %d trailing bytes in values section", len(b)-off)
	}
	return nil
}

// sectionSeed hashes the values checkDict compares.
var sectionSeed = maphash.MakeSeed()

// checkDict verifies a dict+ID column as it arrived, building no
// dictionary: its values section's framing, no value in it twice — the
// byte ranges are hashed into an open-addressing table of their
// offsets, compared byte for byte on a hit — and every ID inside it,
// every value used by some row. It returns the values' modeled bytes,
// each its length plus one.
func checkDict(sec []byte, ids []uint32) (int64, error) {
	n, off, err := sectionCount(sec)
	if err != nil {
		return 0, err
	}
	// A table of more than 1.5·n slots, each a value's length-prefix
	// offset plus one under its hash's top half (a byte range is compared
	// only when those agree), then a flag a value for the IDs.
	slots := 1 << bits.Len64(n+n/2)
	table, mask := make([]uint64, slots), uint64(slots-1)
	var size int64
	for i := range n {
		l, k := binary.Uvarint(sec[off:])
		if k <= 0 || l > uint64(len(sec)-off-k) {
			return 0, fmt.Errorf("colstore: values section value %d truncated", i)
		}
		v, h := sec[off+k:off+k+int(l)], maphash.Bytes(sectionSeed, sec[off+k:off+k+int(l)])
		for s := h & mask; ; s = (s + 1) & mask {
			if table[s] == 0 {
				table[s] = h&^(1<<32-1) | uint64(off+1)
				break
			}
			if table[s]>>32 != h>>32 {
				continue
			}
			at := int(uint32(table[s])) - 1
			l, k := binary.Uvarint(sec[at:])
			if bytes.Equal(sec[at+k:at+k+int(l)], v) {
				return 0, fmt.Errorf("colstore: values section value %q duplicated", v)
			}
		}
		size += int64(l) + 1
		off += k + int(l)
	}
	if off != len(sec) {
		return 0, fmt.Errorf("colstore: %d trailing bytes in values section", len(sec)-off)
	}
	used := make([]bool, n)
	for i, id := range ids {
		if int(id) >= len(used) {
			return 0, fmt.Errorf("row %d: id %d outside a dictionary of %d values", i, id, n)
		}
		used[id] = true
	}
	seen := 0
	for _, u := range used {
		if u {
			seen++
		}
	}
	if uint64(seen) != n {
		return 0, fmt.Errorf("rows use %d of the dictionary's %d values", seen, n)
	}
	return size, nil
}
