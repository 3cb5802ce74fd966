package colstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The byte-at-a-time unpacking Decode and max used before they read a
// 32-bit word per refill: the references the word reads are held to.

func refDecode(it *runIter, dst []uint32) {
	width := it.width
	var acc uint64
	var nacc uint
	src := it.run
	mask := uint32(1)<<width - 1
	for k := range dst {
		for nacc < width {
			acc |= uint64(src[0]) << nacc
			src = src[1:]
			nacc += 8
		}
		dst[k] = uint32(acc) & mask
		acc >>= width
		nacc -= width
	}
}

func refMax(it *runIter) (hi uint32) {
	if it.rle {
		return it.id
	}
	dst := make([]uint32, it.count)
	refDecode(it, dst)
	for _, v := range dst {
		hi = max(hi, v)
	}
	return hi
}

// refDecodeChunk is DecodeChunk over refDecode.
func refDecodeChunk(payload []byte, dst []uint32) error {
	it, err := chunkRuns(payload)
	if err != nil {
		return err
	}
	row := 0
	for it.Next() {
		cnt := it.Count()
		if row+cnt > len(dst) {
			return fmt.Errorf("overflow")
		}
		if it.RLE() {
			for k := 0; k < cnt; k++ {
				dst[row+k] = it.ID()
			}
		} else {
			refDecode(&it, dst[row:row+cnt])
		}
		row += cnt
	}
	if err := it.Err(); err != nil {
		return err
	}
	if row != len(dst) {
		return fmt.Errorf("short")
	}
	return nil
}

// refCheckChunk is checkChunk over refMax.
func refCheckChunk(payload []byte, rows, dictLen int) error {
	it, err := chunkRuns(payload)
	if err != nil {
		return err
	}
	n := 0
	for it.Next() {
		if n += it.Count(); n > rows {
			return fmt.Errorf("overflow")
		}
		if int64(refMax(&it)) >= int64(dictLen) {
			return fmt.Errorf("ID past dictionary")
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if n != rows {
		return fmt.Errorf("short")
	}
	return nil
}

// checkAgainstRefs holds the codec's reads of payload to the
// references: DecodeChunk's verdict and IDs, each run's Decode and max,
// and checkChunk's verdict at dictionary sizes around the largest ID.
// The payload may be hostile; a walk past maxRows rows stops early.
func checkAgainstRefs(t *testing.T, payload []byte, maxRows int) {
	t.Helper()
	it, err := chunkRuns(payload)
	if err != nil {
		return
	}
	rows, hi := 0, uint32(0)
	for it.Next() {
		if rows += it.Count(); rows > maxRows {
			return
		}
		if !it.RLE() {
			got, want := make([]uint32, it.Count()), make([]uint32, it.Count())
			if err := it.Decode(got); err != nil {
				t.Fatalf("Decode of a %d-row run: %v", it.Count(), err)
			}
			refDecode(&it, want)
			if !slices.Equal(got, want) {
				t.Fatalf("Decode of a %d-row width-%d run = %v, reference %v", it.Count(), it.width, got, want)
			}
		}
		m, want := it.max(), refMax(&it)
		if m != want {
			t.Fatalf("max of a %d-row run = %d, reference %d", it.Count(), m, want)
		}
		hi = max(hi, m)
	}
	for _, n := range []int{rows, rows + 1, max(rows-1, 0)} {
		got, want := make([]uint32, n), make([]uint32, n)
		gerr, werr := DecodeChunk(payload, got), refDecodeChunk(payload, want)
		if (gerr == nil) != (werr == nil) || (gerr == nil && !slices.Equal(got, want)) {
			t.Fatalf("DecodeChunk into %d rows = %v, %v; reference %v, %v", n, got, gerr, want, werr)
		}
		for _, dictLen := range []int{int(hi), int(hi) + 1, 1 << 33} {
			gerr, werr := checkChunk(payload, n, dictLen), refCheckChunk(payload, n, dictLen)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("checkChunk(%d rows, dict %d) = %v, reference %v", n, dictLen, gerr, werr)
			}
		}
	}
}

// TestChunkDecodeMatchesReference pins the word-refill edges with
// hand-built runs: widths 0, 1, 31 and 32, byte counts below four and
// ≡ 1–3 mod 4, and padding bits set in a run's last byte.
func TestChunkDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []uint{0, 1, 3, 5, 7, 8, 13, 17, 31, 32} {
		for rows := 1; rows <= 70; rows++ {
			nb := (rows*int(width) + 7) / 8
			payload := binary.AppendUvarint([]byte{byte(width)}, uint64(rows)<<1)
			run := make([]byte, nb)
			rng.Read(run) // set padding bits too
			checkAgainstRefs(t, append(payload, run...), 1<<20)
		}
	}
	for _, distinct := range []int{1, 2, 3, 1 << 31, 1 << 32} {
		ids := make([]uint32, 777)
		for i := range ids {
			ids[i] = uint32(rng.Int63n(int64(distinct)))
		}
		payload, _, _ := EncodeChunk(nil, ids)
		checkAgainstRefs(t, payload, len(ids))
		got := make([]uint32, len(ids))
		if err := DecodeChunk(payload, got); err != nil || !slices.Equal(got, ids) {
			t.Fatalf("round trip at %d distinct: %v", distinct, err)
		}
	}
}

// BenchmarkChunkCodec prices one DefaultChunkRows-ID chunk through
// decode, the receiver's check and encode, at cardinalities from a
// flag column to near-unique IDs.
func BenchmarkChunkCodec(b *testing.B) {
	for _, distinct := range []int{2, 100, 5000, 200000} {
		rng := rand.New(rand.NewSource(int64(distinct)))
		ids := make([]uint32, DefaultChunkRows)
		for i := range ids {
			ids[i] = uint32(rng.Intn(distinct))
		}
		payload, _, hi := EncodeChunk(nil, ids)
		dst := make([]uint32, len(ids))
		b.Run(fmt.Sprintf("decode/distinct=%d", distinct), func(b *testing.B) {
			b.SetBytes(int64(4 * len(ids)))
			for b.Loop() {
				if err := DecodeChunk(payload, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("check/distinct=%d", distinct), func(b *testing.B) {
			b.SetBytes(int64(4 * len(ids)))
			for b.Loop() {
				if err := checkChunk(payload, len(ids), int(hi)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("encode/distinct=%d", distinct), func(b *testing.B) {
			b.SetBytes(int64(4 * len(ids)))
			buf := make([]byte, 0, 2*len(payload))
			for b.Loop() {
				buf, _, _ = EncodeChunk(buf[:0], ids)
			}
		})
	}
}
