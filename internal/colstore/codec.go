package colstore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"distcfd/internal/relation"
)

// The chunk codec: one chunk of up to chunkRows column IDs encodes as
//
//	u8 width | run*
//
// where width is the bit width of the chunk's largest ID (0 when every
// ID is 0) and each run is
//
//	uvarint h; h&1 == 1: RLE   — n = h>>1 rows of one uvarint ID
//	           h&1 == 0: packed — n = h>>1 IDs bit-packed at width bits
//
// Packed runs lay IDs out LSB-first within little-endian bytes, the
// usual bit-packing order. The codec is pure: no allocation beyond the
// caller's destination buffers, so the decode path can run over an
// mmap'd file without copying anything but the IDs themselves.
//
// EncodeChunk and DecodeChunk are the codec's stable seam: the wire
// layer ships chunk payloads verbatim (remote.WirePackedRelation), so
// any layout change here is a wire format change and needs a
// remote.WireVersion bump alongside the colstore FormatVersion bump.
// The same holds for the values section below, which every wire form
// uses.

// minRLERun is the shortest repeat worth an RLE run. Below it the run
// header + uvarint value costs more than packing the repeats.
const minRLERun = 8

// maxRunRows caps one run's row count — far above any real chunk
// (writer chunks are thousands of rows), low enough that count*width
// arithmetic cannot overflow. Payloads arrive off the wire, so a
// header past the cap is rejected as malformed rather than trusted
// into a slice bound.
const maxRunRows = 1 << 30

// EncodeChunk encodes vals as one chunk, appending to dst, and returns
// the extended buffer plus the chunk's min and max ID. vals must be
// non-empty.
func EncodeChunk(dst []byte, vals []uint32) (out []byte, minID, maxID uint32) {
	minID, maxID = vals[0], vals[0]
	for _, v := range vals[1:] {
		minID, maxID = min(minID, v), max(maxID, v)
	}
	width := uint(bits.Len32(maxID))
	dst = append(dst, byte(width))
	// run counts the equal IDs that end at k. Below minRLERun it only
	// steps, so at low cardinality, where runs end at random, the scan
	// takes no branch on where they end; a run reaching minRLERun is
	// extended to its end and emitted.
	litStart, run := 0, 1
	for k := 1; k < len(vals); k++ {
		next := 1
		if vals[k] == vals[k-1] {
			next = run + 1
		}
		if run = next; run < minRLERun {
			continue
		}
		i, j := k+1-minRLERun, k+1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = appendPacked(dst, vals[litStart:i], width)
		dst = binary.AppendUvarint(dst, uint64(j-i)<<1|1)
		dst = binary.AppendUvarint(dst, uint64(vals[i]))
		litStart, k, run = j, j, 1
	}
	return appendPacked(dst, vals[litStart:], width), minID, maxID
}

// appendPacked appends lit, IDs below 1<<width, as one bit-packed run:
// its header, then the IDs LSB-first through a 64-bit accumulator that
// stores a little-endian 32-bit word whenever it holds one (it holds
// fewer than 32 bits before an ID joins, so a word always fits), and
// its last zero to three bytes alone. The bytes are those a byte at a
// time would write; refill reads them back the same way.
func appendPacked(dst []byte, lit []uint32, width uint) []byte {
	if len(lit) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(lit))<<1)
	dst = slices.Grow(dst, (len(lit)*int(width)+7)/8)
	var acc uint64
	var nacc uint
	for _, v := range lit {
		acc |= uint64(v) << nacc
		if nacc += width; nacc >= 32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
			acc >>= 32
			nacc -= 32
		}
	}
	for ; nacc > 0; nacc -= min(nacc, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// DecodeChunk decodes one chunk payload into dst, which must be sized
// to the chunk's row count. It returns an error on any malformed run —
// the caller has already checksum-verified the segment, so an error
// here means a format bug or version skew, not silent data loss.
func DecodeChunk(payload []byte, dst []uint32) error {
	it, err := chunkRuns(payload)
	if err != nil {
		return err
	}
	row := 0
	for it.Next() {
		cnt := it.Count()
		if row+cnt > len(dst) {
			return fmt.Errorf("colstore: chunk run of %d rows overflows %d-row chunk at row %d", cnt, len(dst), row)
		}
		if it.RLE() {
			id := it.ID()
			for k := 0; k < cnt; k++ {
				dst[row+k] = id
			}
		} else if err := it.Decode(dst[row : row+cnt]); err != nil {
			return err
		}
		row += cnt
	}
	if err := it.Err(); err != nil {
		return err
	}
	if row != len(dst) {
		return fmt.Errorf("colstore: chunk decoded %d rows, want %d", row, len(dst))
	}
	return nil
}

// runIter iterates the runs of one chunk payload without decoding
// them: RLE runs surface as (count, id) pairs, bit-packed runs as a
// count plus an on-demand Decode. This is what lets a point read or a
// peer's payload check step over whole runs without materializing the
// rows.
type runIter struct {
	width uint
	rest  []byte
	run   []byte // current bit-packed run's bytes
	count int
	rle   bool
	id    uint32
	row   int
	err   error
}

// chunkRuns opens a run iterator over one chunk payload. The payload's
// leading width byte is validated here; malformed runs surface from
// Next via Err.
func chunkRuns(payload []byte) (runIter, error) {
	if len(payload) < 1 {
		return runIter{}, fmt.Errorf("colstore: chunk payload truncated (no width byte)")
	}
	width := uint(payload[0])
	if width > 32 {
		return runIter{}, fmt.Errorf("colstore: chunk width %d out of range", width)
	}
	return runIter{width: width, rest: payload[1:]}, nil
}

// Next advances to the next run, returning false at the end of the
// payload or on a malformed run (check Err to tell the two apart).
func (it *runIter) Next() bool {
	if it.err != nil || len(it.rest) == 0 {
		return false
	}
	it.row += it.count
	h, n := binary.Uvarint(it.rest)
	if n <= 0 {
		it.err = fmt.Errorf("colstore: chunk run header truncated at row %d", it.row)
		return false
	}
	it.rest = it.rest[n:]
	if h>>1 == 0 || h>>1 > maxRunRows {
		it.err = fmt.Errorf("colstore: chunk run of %d rows at row %d", h>>1, it.row)
		return false
	}
	cnt := int(h >> 1)
	it.count = cnt
	if h&1 == 1 {
		v, n := binary.Uvarint(it.rest)
		if n <= 0 {
			it.err = fmt.Errorf("colstore: RLE value truncated at row %d", it.row)
			return false
		}
		it.rest = it.rest[n:]
		it.rle, it.id, it.run = true, uint32(v), nil
		return true
	}
	nb := (int64(cnt)*int64(it.width) + 7) / 8
	if int64(len(it.rest)) < nb {
		it.err = fmt.Errorf("colstore: packed run truncated at row %d (want %d bytes, have %d)", it.row, nb, len(it.rest))
		return false
	}
	nbytes := int(nb)
	it.rle, it.run = false, it.rest[:nbytes]
	it.rest = it.rest[nbytes:]
	return true
}

// Count returns the current run's row count.
func (it *runIter) Count() int { return it.count }

// RLE reports whether the current run is an RLE run.
func (it *runIter) RLE() bool { return it.rle }

// ID returns the current RLE run's repeated ID (zero for packed runs).
func (it *runIter) ID() uint32 { return it.id }

// Err returns the first malformed-run error, or nil. A fully-consumed
// payload with leftover bytes is not representable per run, so callers
// decoding a whole chunk also check the decoded row total (DecodeChunk
// does).
func (it *runIter) Err() error { return it.err }

// Decode unpacks the current bit-packed run into dst, which must be
// sized to Count. Calling it on an RLE run is a programming error.
func (it *runIter) Decode(dst []uint32) error {
	if it.rle || len(dst) != it.count {
		return fmt.Errorf("colstore: Decode dst has %d rows, run has %d (RLE: %t)", len(dst), it.count, it.rle)
	}
	width := it.width // 0 reads no bytes: every ID is 0
	var acc uint64
	var nacc uint
	src := it.run
	mask := uint32(1)<<width - 1
	for k := range dst {
		if nacc < width {
			acc, nacc, src = refill(acc, nacc, width, src)
		}
		dst[k] = uint32(acc) & mask
		acc >>= width
		nacc -= width
	}
	return nil
}

// refill tops up a packed run's bit accumulator, which holds nacc <
// width ≤ 32 bits, to at least width bits: one little-endian 32-bit
// word while four bytes of the run remain, single bytes for its last
// one to three. The bit stream is the same either way, so the IDs are
// too; a run holds ceil(count·width/8) bytes, so the byte tail never
// runs dry before the run's last ID.
func refill(acc uint64, nacc, width uint, src []byte) (uint64, uint, []byte) {
	if len(src) >= 4 {
		return acc | uint64(binary.LittleEndian.Uint32(src))<<nacc, nacc + 32, src[4:]
	}
	for nacc < width {
		acc |= uint64(src[0]) << nacc
		src = src[1:]
		nacc += 8
	}
	return acc, nacc, src
}

// at returns the k-th ID of the current bit-packed run.
func (it *runIter) at(k int) uint32 {
	bit := uint(k) * it.width
	var b [8]byte
	copy(b[:], it.run[bit/8:])
	return uint32(binary.LittleEndian.Uint64(b[:])>>(bit%8)) & uint32(uint64(1)<<it.width-1)
}

// chunkAt returns row i of one chunk payload and decodes nothing else:
// RLE runs and whole packed runs before it are stepped over by header.
func chunkAt(payload []byte, i int) (uint32, error) {
	it, err := chunkRuns(payload)
	if err != nil {
		return 0, err
	}
	for it.Next() {
		if i < it.count {
			if it.rle {
				return it.id, nil
			}
			return it.at(i), nil
		}
		i -= it.count
	}
	if it.err != nil {
		return 0, it.err
	}
	return 0, fmt.Errorf("colstore: chunk ends %d rows before the one read", i+1)
}

// max returns the largest ID of the current run without storing any:
// what checkChunk holds against the column's dictionary. The update
// compiles branch-free; the accumulator refills as Decode's does.
func (it *runIter) max() (hi uint32) {
	if it.rle {
		return it.id
	}
	width := it.width // 0 reads no bytes: every ID is 0
	var acc uint64
	var nacc uint
	src := it.run
	mask := uint32(1)<<width - 1
	for k := 0; k < it.count; k++ {
		if nacc < width {
			acc, nacc, src = refill(acc, nacc, width, src)
		}
		hi = max(hi, uint32(acc)&mask)
		acc >>= width
		nacc -= width
	}
	return hi
}

// checkChunk verifies a chunk payload this process did not write — a
// peer's or a file's — without decoding it anywhere: the runs are
// well-formed, cover exactly rows rows, and hold no ID at or past
// dictLen. After it passes, DecodeChunk over the same payload cannot
// fail and cannot produce an ID the column's dictionary lacks.
func checkChunk(payload []byte, rows, dictLen int) error {
	it, err := chunkRuns(payload)
	if err != nil {
		return err
	}
	n := 0
	for it.Next() {
		if n += it.Count(); n > rows {
			return fmt.Errorf("colstore: chunk run overflows its %d-row span", rows)
		}
		if hi := it.max(); int64(hi) >= int64(dictLen) {
			return fmt.Errorf("colstore: chunk holds ID %d outside the dictionary of %d values", hi, dictLen)
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if n != rows {
		return fmt.Errorf("colstore: chunk holds %d rows, its span has %d", n, rows)
	}
	return nil
}

// The values section is the one layout a list of values takes outside
// the process that built it: a uvarint count, then each value as a
// uvarint length and its bytes. A store fragment's column dictionary
// and a packed column's dictionary are values sections, and so are the
// wire's row form (remote.WireRelation.Tuples, row-major), each
// dictionary of its dict+ID form (.Dicts) and a delta's inserts
// (remote.WireDelta.Inserts). DecodeDict reads the dictionaries and
// DecodeDictSection the rows, over one framing check (sectionCount),
// so a layout change here moves the store format and every wire form
// at once: bump FormatVersion and remote.WireVersion together.

// EncodeDictSection appends vals as one values section to dst.
func EncodeDictSection(dst []byte, vals []string) []byte {
	return AppendValues(dst, len(vals), func(k uint32) string { return vals[k] })
}

// AppendValues appends n values, the k-th val(k), as one values
// section to dst: a dictionary's (relation.Dict.Val) or a renumbered
// column's (relation.Renumber.Val) straight from where they live.
func AppendValues(dst []byte, n int, val func(uint32) string) []byte {
	size := 0
	for k := range n {
		l := len(val(uint32(k)))
		size += uvarintLen(l) + l
	}
	dst = growSection(dst, n, size)
	for k := range n {
		dst = appendValue(dst, val(uint32(k)))
	}
	return dst
}

// EncodeRowSection appends the values of rows, row-major, as one
// values section to dst: a delta's inserts, whatever each row's arity.
func EncodeRowSection(dst []byte, rows []relation.Tuple) []byte {
	n, size := 0, 0
	for _, t := range rows {
		for _, v := range t {
			n, size = n+1, size+uvarintLen(len(v))+len(v)
		}
	}
	dst = growSection(dst, n, size)
	for _, t := range rows {
		for _, v := range t {
			dst = appendValue(dst, v)
		}
	}
	return dst
}

// EncodeRows appends rows rows of arity values, row i's j-th val(i, j),
// row-major, as one values section to dst: the wire's row form, read
// straight from a relation's columns (relation.Compaction.Value) with
// no tuple built on the way.
func EncodeRows(dst []byte, rows, arity int, val func(i, j int) string) []byte {
	size := 0
	for i := range rows {
		for j := range arity {
			l := len(val(i, j))
			size += uvarintLen(l) + l
		}
	}
	dst = growSection(dst, rows*arity, size)
	for i := range rows {
		for j := range arity {
			dst = appendValue(dst, val(i, j))
		}
	}
	return dst
}

// growSection grows dst once to hold a section of n values taking size
// bytes after the count, and appends the count.
func growSection(dst []byte, n, size int) []byte {
	return binary.AppendUvarint(slices.Grow(dst, uvarintLen(n)+size), uint64(n))
}

func appendValue(dst []byte, v string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(v))), v...)
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// DecodeDictSection parses one values section. It copies the section
// into one string and slices every value out of it, so a section costs
// two allocations however many values it holds. The values share that
// string: state that keeps one beyond the section's use clones it
// (strings.Clone), or the whole section stays alive behind it. The
// bytes may come from a peer, so every bound is checked before use — a
// count larger than the bytes could hold, a truncated count or length,
// a value running past the end and trailing bytes are each an error.
func DecodeDictSection(b []byte) ([]string, error) {
	n, off, err := sectionCount(b)
	if err != nil {
		return nil, err
	}
	var vals []string
	if n > 0 {
		s := string(b)
		vals = make([]string, n)
		for i := range vals {
			l, k := binary.Uvarint(b[off:])
			if k <= 0 || l > uint64(len(b)-off-k) {
				return nil, fmt.Errorf("colstore: values section value %d truncated", i)
			}
			off += k
			vals[i] = s[off : off+int(l)]
			off += int(l)
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("colstore: %d trailing bytes in values section", len(b)-off)
	}
	return vals, nil
}

// DecodeDict parses one values section straight into a dictionary
// whose IDs follow the section's order: each value is copied into the
// dictionary's arena as it is read, which is sized once from the
// section's length, so a section costs three allocations however many
// values it holds and nothing keeps the section. It checks what
// DecodeDictSection checks, and a repeated value is an error.
func DecodeDict(b []byte) (*relation.Dict, error) {
	n, off, err := sectionCount(b)
	if err != nil {
		return nil, err
	}
	// Every value takes at least its length byte, so the values' bytes
	// are at most what is left less one a value.
	d := relation.NewDictSized(int(n), len(b)-off-int(n))
	for i := range int(n) {
		l, k := binary.Uvarint(b[off:])
		if k <= 0 || l > uint64(len(b)-off-k) {
			return nil, fmt.Errorf("colstore: values section value %d truncated", i)
		}
		off += k
		v := b[off : off+int(l)]
		if id, added := d.Add(v); !added {
			return nil, fmt.Errorf("colstore: values section value %q duplicated at ids %d and %d", v, id, i)
		}
		off += int(l)
	}
	if off != len(b) {
		return nil, fmt.Errorf("colstore: %d trailing bytes in values section", len(b)-off)
	}
	return d, nil
}

// sectionCount reads a values section's count, checked against the
// bytes after it, and returns where the values start.
func sectionCount(b []byte) (n uint64, off int, err error) {
	n, off = binary.Uvarint(b)
	if off <= 0 {
		return 0, 0, fmt.Errorf("colstore: values section count truncated")
	}
	if n > uint64(len(b)-off) { // every value takes at least its length byte
		return 0, 0, fmt.Errorf("colstore: values section counts %d values in %d bytes", n, len(b)-off)
	}
	return n, off, nil
}

// DecodeRowSection parses a row section (EncodeRowSection) that holds
// rows tuples, each sharing the section's one string as
// DecodeDictSection's values do. No bytes at all are zero rows. rows is
// the peer's word, so the arity is derived by division, never by a
// product that could overflow: a row count that does not divide the
// values, or rows of no values, is an error. Callers check the arity
// against their schema.
func DecodeRowSection(b []byte, rows int) ([]relation.Tuple, error) {
	if len(b) == 0 && rows == 0 {
		return nil, nil
	}
	vals, err := DecodeDictSection(b)
	if err != nil {
		return nil, err
	}
	if rows <= 0 || len(vals) == 0 || len(vals)%rows != 0 {
		return nil, fmt.Errorf("colstore: row section of %d values does not hold %d rows", len(vals), rows)
	}
	arity := len(vals) / rows
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		ts[i] = vals[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return ts, nil
}
