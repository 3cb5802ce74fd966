package colstore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
)

// FuzzChunkCodec fuzzes the chunk codec's stable seam from both sides.
// The input bytes are used three ways:
//
//  1. as an ID vector (4 bytes LE per ID): EncodeChunk must write the
//     bytes of the byte-at-a-time packing (refEncodeChunk) after the
//     input's 0–3 leftover bytes as a prefix, EncodeChunk → DecodeChunk
//     must round-trip exactly, the reported min/max must bound the IDs,
//     a chunkRuns walk must agree with DecodeChunk row for row, and so
//     must a chunkAt point read of every row;
//  2. as an adversarial chunk payload fed straight to chunkRuns/DecodeChunk —
//     the wire ships payloads verbatim, so arbitrary bytes must error
//     cleanly, never panic or over-allocate;
//  3. as a \x1f-joined value list: EncodeDictSection → DecodeDictSection
//     must round-trip, and the raw bytes fed to DecodeDictSection must
//     not panic.
//
// Under 1 and 2 the payload's reads are also held to the byte-at-a-time
// references (checkAgainstRefs): DecodeChunk's verdict and IDs, each
// run's Decode and max, and checkChunk's verdict. The seeds in
// testdata/fuzz/FuzzChunkCodec cover widths 0, 1, 31 and 32, packed
// runs of under four bytes and of 1–3 bytes past a multiple of four,
// and set padding bits in a run's last byte.
func FuzzChunkCodec(f *testing.F) {
	f.Add([]byte{})
	// Width 0: every ID zero.
	f.Add(make([]byte, 16*4))
	// Width 32: IDs with the top bit set.
	f.Add(bytes.Repeat([]byte{0xfe, 0xff, 0xff, 0xff}, 3))
	// A repeat of exactly minRLERun, flanked by literals: the
	// RLE/packed boundary.
	f.Add(seedIDs(append(append([]uint32{1, 9}, repeat(7, minRLERun)...), 2)))
	// A repeat one short of minRLERun: must stay bit-packed.
	f.Add(seedIDs(repeat(5, minRLERun-1)))
	// Dictionary values adjacent to the \x1f separator, including
	// empties.
	f.Add([]byte("a\x1fb\x1f\x1f\x1ec\x1f"))
	// A valid small payload prefix with trailing garbage.
	enc, _, _ := EncodeChunk(nil, []uint32{3, 1, 4, 1, 5})
	f.Add(append(enc, 0x81, 0x00))
	// A malformed header claiming a huge run count.
	f.Add([]byte{32, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzIDRoundTrip(t, data)
		fuzzAdversarialPayload(t, data)
		fuzzDictSection(t, data)
	})
}

func seedIDs(ids []uint32) []byte {
	out := make([]byte, 0, 4*len(ids))
	for _, v := range ids {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

func repeat(v uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func fuzzIDRoundTrip(t *testing.T, data []byte) {
	n := len(data) / 4
	if n == 0 {
		return
	}
	if n > 3*DefaultChunkRows {
		n = 3 * DefaultChunkRows
	}
	ids := make([]uint32, n)
	for i := range ids {
		b := data[4*i:]
		ids[i] = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	prefix := data[:len(data)%4]
	payload, minID, maxID := EncodeChunk(slices.Clip(prefix), ids)
	if want := refEncodeChunk(slices.Clip(prefix), ids); !bytes.Equal(payload, want) {
		t.Fatalf("EncodeChunk wrote %x, the byte-at-a-time packing %x", payload, want)
	}
	payload = payload[len(prefix):]
	checkAgainstRefs(t, payload, n)
	for _, v := range ids {
		if v < minID || v > maxID {
			t.Fatalf("EncodeChunk bounds [%d, %d] miss ID %d", minID, maxID, v)
		}
	}
	got := make([]uint32, n)
	if err := DecodeChunk(payload, got); err != nil {
		t.Fatalf("DecodeChunk(EncodeChunk(%d IDs)): %v", n, err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("round trip: row %d = %d, want %d", i, got[i], ids[i])
		}
		if v, err := chunkAt(payload, i); err != nil || v != ids[i] {
			t.Fatalf("chunkAt row %d = %d, %v; want %d", i, v, err, ids[i])
		}
	}
	// A chunkRuns walk over the same payload must reproduce the decode:
	// RLE runs by their (count, id), packed runs via Decode.
	it, err := chunkRuns(payload)
	if err != nil {
		t.Fatalf("chunkRuns(EncodeChunk): %v", err)
	}
	row := 0
	for it.Next() {
		cnt := it.Count()
		if row+cnt > n {
			t.Fatalf("runs overflow: row %d + count %d > %d", row, cnt, n)
		}
		if it.RLE() {
			if cnt < minRLERun {
				t.Fatalf("RLE run of %d rows, below minRLERun %d", cnt, minRLERun)
			}
			for k := 0; k < cnt; k++ {
				if ids[row+k] != it.ID() {
					t.Fatalf("RLE run mismatch at row %d", row+k)
				}
			}
		} else {
			seg := make([]uint32, cnt)
			if err := it.Decode(seg); err != nil {
				t.Fatalf("Decode: %v", err)
			}
			for k, v := range seg {
				if ids[row+k] != v {
					t.Fatalf("packed run mismatch at row %d: %d want %d", row+k, v, ids[row+k])
				}
			}
		}
		row += cnt
	}
	if err := it.Err(); err != nil {
		t.Fatalf("chunkRuns walk: %v", err)
	}
	if row != n {
		t.Fatalf("chunkRuns walked %d rows, want %d", row, n)
	}
}

func fuzzAdversarialPayload(t *testing.T, data []byte) {
	// Must never panic; errors are the expected outcome for garbage.
	checkAgainstRefs(t, data, 4*DefaultChunkRows)
	dst := make([]uint32, 256)
	if DecodeChunk(data, dst) == nil {
		for i, want := range dst {
			if v, err := chunkAt(data, i); err != nil || v != want {
				t.Fatalf("chunkAt row %d = %d, %v; DecodeChunk says %d", i, v, err, want)
			}
		}
		if _, err := chunkAt(data, len(dst)); err == nil {
			t.Fatal("chunkAt read a row past the chunk's last")
		}
	} else {
		_, _ = chunkAt(data, 255)
	}
	it, err := chunkRuns(data)
	if err != nil {
		return
	}
	rows := 0
	for it.Next() {
		rows += it.Count()
		if rows > 4*DefaultChunkRows {
			return // bounded: a hostile payload cannot force unbounded work
		}
		if !it.RLE() {
			_ = it.Decode(make([]uint32, it.Count()))
		}
	}
	_ = it.Err()
}

func fuzzDictSection(t *testing.T, data []byte) {
	vals := strings.Split(string(data), "\x1f")
	sec := EncodeDictSection(nil, vals)
	got, err := DecodeDictSection(sec)
	if err != nil {
		t.Fatalf("DecodeDictSection(EncodeDictSection(%d vals)): %v", len(vals), err)
	}
	if len(got) != len(vals) {
		t.Fatalf("dict round trip: %d vals, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("dict round trip: val %d = %q, want %q", i, got[i], vals[i])
		}
	}
	// Raw bytes as a dict section: error or success, never a panic or
	// an unbounded allocation (the count is validated against the
	// section's length before allocating).
	_, _ = DecodeDictSection(data)
}

// FuzzFragmentOpen hands parseFragment arbitrary bytes as a
// fragment.col — footer, segment table, schema — then asks every column
// for its dictionary and one ReadColumn, and reads its first rows and
// its last one ID at a time as values (the IDs mapped through the
// dictionaries). Each input runs twice: as it is, and resealed, because
// a corrupted file fails a checksum but a hostile one carries checksums
// that hold, and only then do the schema, dictionary, chunk-directory
// and chunk decoders see the bytes. Error or success; never a panic, a
// read outside the buffer, or an allocation the file's own size does
// not pay for. The seeds are in testdata/fuzz/FuzzFragmentOpen.
func FuzzFragmentOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOpenAndRead(data)
		fuzzOpenAndRead(reseal(data))
	})
}

func fuzzOpenAndRead(data []byte) {
	fr, err := parseFragment("fuzz", data, nil)
	if err != nil {
		return
	}
	defer fr.Close()
	// The footer's row count is the file's word; the read is sized here.
	dst := make([]uint32, min(fr.Rows(), 2*DefaultChunkRows))
	for j := 0; j < fr.NumColumns(); j++ {
		_, _ = fr.Dict(j)
		_ = fr.ReadColumn(j, 0, dst)
	}
	// Point reads (chunkAt) of the first rows and the last, as values:
	// an ID any read hands out indexes its dictionary (Val panics past
	// its end), because a segment's chunks are checked against it when
	// the segment loads.
	rows := []int{fr.Rows() - 1}
	for row := 0; row < min(fr.Rows(), 2*pointReads); row++ {
		rows = append(rows, row)
	}
	for j := 0; j < fr.NumColumns() && fr.Rows() > 0; j++ {
		d, err := fr.Dict(j)
		for _, row := range rows {
			if fr.ReadColumn(j, row, dst[:1]) == nil && err == nil {
				_ = d.Val(dst[0])
			}
		}
	}
}

// reseal returns data with the checksum of every section its segment
// table reaches, then the table's own, recomputed in place.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	if len(out) < footerSize {
		return out
	}
	ft := out[len(out)-footerSize:]
	body := uint64(len(out) - footerSize)
	inBody := func(off, n uint64) bool { return off <= body && n <= body-off }
	off, n := binary.LittleEndian.Uint64(ft[24:]), binary.LittleEndian.Uint64(ft[32:])
	if !inBody(off, n) {
		return out
	}
	table := out[off : off+n]
	for e := table; len(e) >= tableEntrySize; e = e[tableEntrySize:] {
		if so, sn := binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint64(e[8:]); inBody(so, sn) {
			binary.LittleEndian.PutUint64(e[16:], checksum(out[so:so+sn]))
		}
	}
	binary.LittleEndian.PutUint64(ft[40:], checksum(table))
	return out
}
