package colstore

import (
	"fmt"
	"sync"

	"distcfd/internal/relation"
)

// PackedColumn is one packed column's bytes: the shape the wire layer
// ships and reassembles (NewPacked, Packed.Column), and the shape a
// fragment file stores — there the slices alias the mapping.
type PackedColumn struct {
	// Dict is the encoded dictionary section (EncodeDictSection).
	Dict []byte
	// Chunks holds the raw chunk payloads in row order.
	Chunks [][]byte
}

// column is the one packed column every reader goes through, wherever
// its bytes live. A wire or extract column is complete when built. A
// fragment file's column carries a backing: Open fills its dictionary
// side without touching a page of it, columns.col fills the chunk side
// from the segment on first use, and PackBase shares it with a Packed,
// decoded dictionary included. Safe for concurrent readers.
type column struct {
	PackedColumn
	rows, chunkRows int
	name            string // for errors: "<file>: column 3", "packed column"
	file            *backing

	dictOnce sync.Once
	dict     *relation.Dict
	dictErr  error

	sizeOnce     sync.Once // PackColumns fills the sizes as it encodes
	raw, encoded int64
	sizeErr      error
}

// backing is the file side of a fragment's column: mapped sections,
// each checked against its table checksum (and the mapping checked
// open) before first use. NewPacked verified a wire column whole.
type backing struct {
	f       *Fragment
	dictSum uint64     // of the dictionary section
	seg     tableEntry // the column segment
	once    sync.Once  // guards the segment load
	err     error
}

// dictionary returns the column's dictionary, decoding its section on
// the first call. Dictionaries are flat (no overlay chain) and may gain
// overlay generations via relation.Chain without touching the bytes.
func (c *column) dictionary() (*relation.Dict, error) {
	c.dictOnce.Do(func() {
		if c.file != nil {
			if c.dictErr = c.file.f.checkOpen(); c.dictErr != nil {
				return
			}
			if checksum(c.Dict) != c.file.dictSum {
				c.dictErr = fmt.Errorf("colstore: %s: dictionary checksum mismatch", c.name)
				return
			}
		}
		vals, err := DecodeDictSection(c.Dict)
		if err == nil {
			c.dict, err = relation.NewDictFromVals(vals)
		}
		if err != nil {
			c.dictErr = fmt.Errorf("colstore: %s: dictionary: %w", c.name, err)
		}
	})
	return c.dict, c.dictErr
}

// chunkSpan returns the row range [lo, hi) chunk k covers.
func (c *column) chunkSpan(k int) (lo, hi int) {
	lo = k * c.chunkRows
	return lo, min(lo+c.chunkRows, c.rows)
}

// readColumn decodes the IDs of rows [lo, lo+len(dst)) into dst.
func (c *column) readColumn(lo int, dst []uint32) error {
	if lo < 0 || lo+len(dst) > c.rows {
		return fmt.Errorf("colstore: ReadColumn rows [%d,%d) out of range [0,%d)", lo, lo+len(dst), c.rows)
	}
	var scratch []uint32
	for len(dst) > 0 {
		k := lo / c.chunkRows
		clo, chi := c.chunkSpan(k)
		n := min(chi-lo, len(dst))
		if lo == clo && n == chi-clo {
			if err := DecodeChunk(c.Chunks[k], dst[:n]); err != nil {
				return err
			}
		} else {
			if scratch == nil {
				scratch = make([]uint32, c.chunkRows)
			}
			if err := DecodeChunk(c.Chunks[k], scratch[:chi-clo]); err != nil {
				return err
			}
			copy(dst[:n], scratch[lo-clo:lo-clo+n])
		}
		dst = dst[n:]
		lo += n
	}
	return nil
}

// payloadSizes returns the column's share of PayloadSizes, counting
// each ID of its decoded chunks on the first call. Chunks are
// immutable once a column is built, so the count holds for its life.
func (c *column) payloadSizes() (raw, encoded int64, err error) {
	c.sizeOnce.Do(func() {
		dict, err := c.dictionary()
		if err != nil {
			c.sizeErr = err
			return
		}
		counts := make([]uint32, dict.Len())
		ids := make([]uint32, min(c.rows, c.chunkRows))
		for k, payload := range c.Chunks {
			lo, hi := c.chunkSpan(k)
			if err := DecodeChunk(payload, ids[:hi-lo]); err != nil {
				c.sizeErr = fmt.Errorf("colstore: %s chunk %d: %w", c.name, k, err)
				return
			}
			for _, id := range ids[:hi-lo] {
				if int(id) >= len(counts) {
					c.sizeErr = fmt.Errorf("colstore: %s chunk %d: ID %d outside the dictionary of %d values", c.name, k, id, len(counts))
					return
				}
				counts[id]++
			}
		}
		c.raw, c.encoded = wireSizes(counts, dict.Val, c.rows)
	})
	return c.raw, c.encoded, c.sizeErr
}

// wireSizes prices a column of rows IDs in which ID k occurs counts[k]
// times, as relation.Encoded.PayloadSizes does: raw is every row's
// value length plus one, encoded every distinct value's plus four bytes
// a row.
func wireSizes(counts []uint32, val func(uint32) string, rows int) (raw, encoded int64) {
	for k, n := range counts {
		if n > 0 {
			l := int64(len(val(uint32(k)))) + 1
			raw += int64(n) * l
			encoded += l
		}
	}
	return raw, encoded + 4*int64(rows)
}

// columns is the reader both containers embed: the
// relation.PackedColumnReader methods, written once.
type columns struct {
	rows int
	cols []*column
}

// col returns column i with its chunk side readable: as built for a
// wire column, after the once-only segment load (closed check, checksum,
// directory parse) for a file column — one nobody reads is never paged
// in. Every chunk read goes through here: none sees an unloaded directory.
func (cs *columns) col(i int) (*column, error) {
	c := cs.cols[i]
	if c.file == nil {
		return c, nil
	}
	c.file.once.Do(func() {
		if c.file.err = c.file.f.checkOpen(); c.file.err == nil {
			c.file.err = c.loadSegment(c.file.f.section(c.file.seg))
		}
	})
	return c, c.file.err
}

// Rows returns the row count.
func (cs *columns) Rows() int { return cs.rows }

// NumColumns returns the arity.
func (cs *columns) NumColumns() int { return len(cs.cols) }

// Dict returns column i's dictionary, decoding its section — for a
// fragment file, after verifying its checksum, and without touching the
// column's segment — on the first call.
func (cs *columns) Dict(i int) (*relation.Dict, error) { return cs.cols[i].dictionary() }

// ColumnDict is the relation.ColumnReader form of Dict. The interface
// leaves no error channel, so it panics where Dict returns an error
// (disk corruption, a read after Close).
func (cs *columns) ColumnDict(i int) *relation.Dict {
	d, err := cs.Dict(i)
	if err != nil {
		panic(err)
	}
	return d
}

// ColumnChunks returns column i's chunk count.
func (cs *columns) ColumnChunks(i int) (int, error) {
	c, err := cs.col(i)
	if err != nil {
		return 0, err
	}
	return len(c.Chunks), nil
}

// ChunkSpan returns the row range [lo, hi) chunk k of column i covers
// — empty when the column fails verification, so a caller falls
// through to the read that reports the error.
func (cs *columns) ChunkSpan(i, k int) (lo, hi int) {
	c, err := cs.col(i)
	if err != nil {
		return 0, 0
	}
	return c.chunkSpan(k)
}

// PackedSize returns the modeled wire size of all columns — dictionary
// sections and chunk payloads — which
// dist.RelationBytes charges when packed shipping wins. On a Fragment it
// loads (and so pages in) every column segment.
func (cs *columns) PackedSize() int64 {
	var n int64
	for i := range cs.cols {
		if c, err := cs.col(i); err == nil { // else the read that follows reports it
			n += int64(len(c.Dict))
			for _, p := range c.Chunks {
				n += int64(len(p))
			}
		}
	}
	return n
}

// PayloadSizes returns the sizes relation.Encoded.PayloadSizes reports
// for the same rows — the row form's and the dict+ID form's — without
// a Dict.Val a cell: a PackColumns payload priced itself while
// encoding; any other column counts its decoded chunks once, and a
// fragment's count serves every PackBase that shares the column.
func (cs *columns) PayloadSizes() (raw, encoded int64, err error) {
	for i := range cs.cols {
		c, err := cs.col(i)
		if err != nil {
			return 0, 0, err
		}
		r, e, err := c.payloadSizes()
		if err != nil {
			return 0, 0, err
		}
		raw, encoded = raw+r, encoded+e
	}
	return raw, encoded, nil
}

// ReadColumn decodes column i's IDs for rows [lo, lo+len(dst)) into dst.
func (cs *columns) ReadColumn(i, lo int, dst []uint32) error {
	c, err := cs.col(i)
	if err != nil {
		return err
	}
	return c.readColumn(lo, dst)
}
