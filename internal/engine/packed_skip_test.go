package engine

import (
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/relation"
)

// countingPacked wraps a packed reader and counts the calls that cost
// decode work: ReadColumn (scratch decode of a whole chunk) and
// ChunkPayload (handing a raw payload to the fold/scan). Bounds probes
// (ChunkIDBounds, ChunkSpan) stay free.
type countingPacked struct {
	relation.PackedColumnReader
	reads    int
	payloads int
}

func (c *countingPacked) ReadColumn(i, lo int, dst []uint32) error {
	c.reads++
	return c.PackedColumnReader.ReadColumn(i, lo, dst)
}

func (c *countingPacked) ChunkPayload(i, k int) ([]byte, error) {
	c.payloads++
	return c.PackedColumnReader.ChunkPayload(i, k)
}

// gappedPacked hand-builds a 4-row, 2-chunk packed relation over
// [a, b] whose column-a dictionary holds a value ("gap", ID 2) that no
// chunk contains: chunk 0 holds IDs {0, 1}, chunk 1 holds IDs {3, 4}.
// PackColumns can never produce such a dictionary (it keeps only
// occurring values), but a shipped payload makes no such promise, and
// the σ-skip must hold from the bounds alone. Rows:
// (a0,b0) (a1,b0) (a3,b1) (a4,b1).
func gappedPacked(t *testing.T) *countingPacked {
	t.Helper()
	a0, amin0, amax0 := colstore.EncodeChunk(nil, []uint32{0, 1})
	a1, amin1, amax1 := colstore.EncodeChunk(nil, []uint32{3, 4})
	b0, bmin0, bmax0 := colstore.EncodeChunk(nil, []uint32{0, 0})
	b1, bmin1, bmax1 := colstore.EncodeChunk(nil, []uint32{1, 1})
	p, err := colstore.NewPacked(4, 2, []colstore.PackedColumn{
		{
			Dict:   colstore.EncodeDictSection(nil, []string{"a0", "a1", "gap", "a3", "a4"}),
			Chunks: [][]byte{a0, a1},
			MinIDs: []uint32{amin0, amin1},
			MaxIDs: []uint32{amax0, amax1},
		},
		{
			Dict:   colstore.EncodeDictSection(nil, []string{"b0", "b1"}),
			Chunks: [][]byte{b0, b1},
			MinIDs: []uint32{bmin0, bmin1},
			MaxIDs: []uint32{bmax0, bmax1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &countingPacked{PackedColumnReader: p}
}

var packedSkipSchema = relation.MustSchema("R", []string{"a", "b"})

// TestPackedConstantSkipsAllChunks pins the receiver-side σ-skip on a
// shipped packed payload: a constant unit whose pattern constant is in
// the dictionary but outside every chunk's [min, max] ID bounds must
// decode zero chunks — no ReadColumn, no ChunkPayload.
func TestPackedConstantSkipsAllChunks(t *testing.T) {
	cp := gappedPacked(t)
	c := cfd.MustParse(`z: [a] -> [b] : (gap || b0)`)
	got, err := detectReader(cp, packedSkipSchema, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("violations = %v, want none", got)
	}
	if cp.reads != 0 || cp.payloads != 0 {
		t.Fatalf("constant outside every chunk's bounds decoded %d columns and %d payloads, want 0 and 0",
			cp.reads, cp.payloads)
	}
}

// TestPackedConstantSkipsExcludedChunk is the positive control through
// the kernel's backing-reader dispatch: a constant present only in
// chunk 1 scans exactly that chunk's payload (one ChunkPayload for the
// constant column, one ReadColumn for the A column) and finds the
// violation.
func TestPackedConstantSkipsExcludedChunk(t *testing.T) {
	cp := gappedPacked(t)
	d, err := relation.FromPackedReader(packedSkipSchema, cp)
	if err != nil {
		t.Fatal(err)
	}
	c := cfd.MustParse(`z2: [a] -> [b] : (a3 || b0)`)
	got, err := detectOne(d, c, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("violations = %v, want [2]", got)
	}
	if cp.payloads != 1 || cp.reads != 1 {
		t.Fatalf("decoded %d payloads and %d columns, want 1 and 1 (chunk 0 σ-skipped)",
			cp.payloads, cp.reads)
	}
}

// TestFragmentConstantSkipsOnNonFirstColumn pins the same σ-skip on a
// store fragment, for a constant on a column other than the one the
// source was bound by: "late" occurs only in chunk 1 of column b, so
// chunk 0 is ruled out by b's bounds alone and exactly one payload (b,
// chunk 1) and one column window (c, chunk 1) are decoded. A fragment
// that answered chunk 0's span before loading b's directory decoded
// chunk 0 as well.
func TestFragmentConstantSkipsOnNonFirstColumn(t *testing.T) {
	rows := 2 * colstore.DefaultChunkRows
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		b := "early"
		if i >= colstore.DefaultChunkRows {
			b = "late"
		}
		ts[i] = relation.Tuple{"a", b, "c"}
	}
	ts[rows-1][2] = "odd"
	s := relation.MustSchema("R", []string{"a", "b", "c"})
	d, err := relation.FromTuples(s, ts)
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingPacked{PackedColumnReader: openFragment(t, d)}
	got, err := detectReader(cp, s, cfd.MustParse(`z: [b] -> [c] : (late || c)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rows-1 {
		t.Fatalf("violations = %v, want [%d]", got, rows-1)
	}
	if cp.payloads != 1 || cp.reads != 1 {
		t.Fatalf("decoded %d payloads and %d columns, want 1 and 1 (chunk 0 σ-skipped)", cp.payloads, cp.reads)
	}
}
