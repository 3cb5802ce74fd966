package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distcfd/internal/relation"
)

// TestGatherPackMatchesReference pins Gather.Pack against refPackColumns
// over the materialized selections: for every block of a batch — the
// whole base in order, a scattered multi-chunk list, one with tail rows,
// an unsorted one with repeats, an empty one and a tail-only one — the
// payload's bytes and prices are those a fresh per-block packing of the
// block's IDs makes, whatever the other blocks of the batch are, and
// each (column, chunk) of the base is decoded at most once.
func TestGatherPackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const base, tailRows, arity = 3*DefaultChunkRows + 411, 700, 3
	vals := make([]string, 900)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	dict, err := relation.NewDictFromVals(vals)
	if err != nil {
		t.Fatal(err)
	}
	// The base reader holds every column's full-dictionary IDs; each
	// column draws from its own share of the dictionary.
	cols, tails := make([][]uint32, arity), make([][]uint32, arity)
	for j := range cols {
		cols[j], tails[j] = make([]uint32, base), make([]uint32, tailRows)
		for _, c := range [][]uint32{cols[j], tails[j]} {
			for i := range c {
				c[i] = uint32(rng.Intn(10 + j*400))
			}
		}
	}
	dicts := []*relation.Dict{dict, dict, dict}
	rd, err := PackColumns(dicts, cols, base)
	if err != nil {
		t.Fatal(err)
	}
	// rd renumbered the IDs: what a ref reads is rd's decoded column.
	for j := range cols {
		if err := rd.ReadColumn(j, 0, cols[j]); err != nil {
			t.Fatal(err)
		}
	}
	rdDicts := make([]*relation.Dict, arity)
	for j := range rdDicts {
		if rdDicts[j], err = rd.Dict(j); err != nil {
			t.Fatal(err)
		}
	}
	// The tail's IDs index the same dictionary as the base's.
	for j := range tails {
		for i := range tails[j] {
			tails[j][i] = uint32(rng.Intn(rdDicts[j].Len()))
		}
	}
	var all, scattered, withTail, tailOnly []int32
	for i := 0; i < base; i++ {
		all = append(all, int32(i))
		if rng.Intn(3) == 0 {
			scattered = append(scattered, int32(i))
		}
	}
	for i := 0; i < base+tailRows; i += 1 + rng.Intn(40) {
		withTail = append(withTail, int32(i))
	}
	for i := base; i < base+tailRows; i += 3 {
		tailOnly = append(tailOnly, int32(i))
	}
	unsorted := []int32{int32(base + 5), 9000, 3, 3, int32(base - 1), 17000, 0, int32(base + tailRows - 1)}
	refs := [][]int32{all, scattered, withTail, unsorted, {}, tailOnly}

	counted := &countingPacked{PackedColumnReader: rd, reads: map[[2]int]int{}}
	want := func(b, j int) []uint32 {
		out := make([]uint32, len(refs[b]))
		for k, ref := range refs[b] {
			if int(ref) < base {
				out[k] = cols[j][ref]
			} else {
				out[k] = tails[j][int(ref)-base]
			}
		}
		return out
	}
	sizes := 0
	packs, err := NewGather(counted, base, tails, refs).Pack([]int{2, 0}, func(c int) (*relation.Dict, error) {
		return rdDicts[c], nil
	}, func(n int) []uint32 {
		sizes = n
		return make([]uint32, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	if total := len(all) + len(scattered) + len(withTail) + len(unsorted) + len(tailOnly); sizes != total {
		t.Fatalf("scratch of %d IDs for a batch of %d rows", sizes, total)
	}
	for at, n := range counted.reads {
		if n != 1 {
			t.Fatalf("column %d chunk at row %d decoded %d times", at[0], at[1], n)
		}
	}
	for b, p := range packs {
		wantCols := [][]uint32{want(b, 2), want(b, 0)}
		ref, wantRaw, wantEnc := refPackColumns([]*relation.Dict{rdDicts[2], rdDicts[0]}, wantCols, len(refs[b]))
		if p.Rows() != len(refs[b]) || p.NumColumns() != 2 {
			t.Fatalf("block %d: %d rows × %d columns, want %d × 2", b, p.Rows(), p.NumColumns(), len(refs[b]))
		}
		for j := range ref {
			got := p.Column(j)
			if !bytes.Equal(got.Dict, ref[j].Dict) || !slices.EqualFunc(got.Chunks, ref[j].Chunks, bytes.Equal) {
				t.Fatalf("block %d column %d: bytes differ from the reference packing", b, j)
			}
		}
		if raw, enc, err := p.PayloadSizes(); err != nil || raw != wantRaw || enc != wantEnc {
			t.Fatalf("block %d: PayloadSizes = %d, %d, %v; the reference prices %d, %d", b, raw, enc, err, wantRaw, wantEnc)
		}
	}
}

// countingPacked counts the reads made through a packed reader, keyed
// by (column, first row), and how many of them asked for a chunk's
// worth of rows — pointReads or more.
type countingPacked struct {
	relation.PackedColumnReader
	reads map[[2]int]int
	long  int
}

func (c *countingPacked) ReadColumn(i, lo int, dst []uint32) error {
	c.reads[[2]int{i, lo}]++
	if len(dst) >= pointReads {
		c.long++
	}
	return c.PackedColumnReader.ReadColumn(i, lo, dst)
}

// TestGatherPointReads pins the gather's two regimes over a fragment
// file and an in-memory tail: refs scattered over the column — fewer
// than pointReads hits a chunk, in descending order as the rows a delta
// deletes come — are each read as one ID and decode no chunk; a chunk
// with pointReads hits or more, however the blocks share them, is
// decoded once; and both return what the in-memory encoding and the
// tail hold.
func TestGatherPointReads(t *testing.T) {
	const rows, tailRows = 3*DefaultChunkRows + 11, 30
	rng := rand.New(rand.NewSource(3))
	r := randomRelation(t, rng, rows, 2)
	f, _ := writeOpen(t, r)
	tails := make([][]uint32, 2)
	for j := range tails {
		for range tailRows {
			tails[j] = append(tails[j], uint32(rng.Intn(f.ColumnDict(j).Len())))
		}
	}
	gather := func(refs [][]int32) *countingPacked {
		t.Helper()
		cr := &countingPacked{PackedColumnReader: f, reads: map[[2]int]int{}}
		g := NewGather(cr, rows, tails, refs)
		for j := range tails {
			wins := make([][]uint32, len(refs))
			for b := range refs {
				wins[b] = make([]uint32, len(refs[b]))
			}
			if err := g.Column(j, wins); err != nil {
				t.Fatal(err)
			}
			col, _ := r.Encoded().Column(j)
			for b, rs := range refs {
				for k, ref := range rs {
					want := tails[j][max(int(ref)-rows, 0)]
					if int(ref) < rows {
						want = col[ref]
					}
					if wins[b][k] != want {
						t.Fatalf("column %d block %d ref %d: ID %d, want %d", j, b, ref, wins[b][k], want)
					}
				}
			}
		}
		return cr
	}

	var sparse []int32
	for ref := rows + tailRows - 1; ref >= 0; ref -= DefaultChunkRows/(pointReads-1) + 3 {
		sparse = append(sparse, int32(ref))
	}
	cr := gather([][]int32{sparse})
	if cr.long != 0 {
		t.Fatalf("scattered refs decoded %d chunks", cr.long)
	}
	if base := len(sparse) - 1; len(cr.reads) != 2*base { // one tail ref
		t.Fatalf("scattered refs made %d reads, want one per base ref and column (%d)", len(cr.reads), 2*base)
	}

	// Chunk 1 has pointReads hits between two blocks, chunk 2 one fewer.
	c1, c2 := int32(DefaultChunkRows), int32(2*DefaultChunkRows)
	dense := [][]int32{
		{c1 + 900, c1 + 5, c1 + 77, c2 + 1, c2 + 2, c2 + 3, c2 + 7},
		{c1, c1 + 6, c1 + 7, c1 + 8000, c1 + 9, c2 + 4, c2 + 5, c2 + 6, int32(rows + 2)},
	}
	cr = gather(dense)
	for j := range tails {
		if n := cr.reads[[2]int{j, int(c1)}]; n != 1 {
			t.Fatalf("column %d: chunk 1 read whole %d times, want once", j, n)
		}
	}
	if cr.long != 2 || len(cr.reads) != 2*pointReads {
		t.Fatalf("%d whole-chunk reads of %d, want chunk 1 once and chunk 2's %d hits one at a time, per column",
			cr.long, len(cr.reads), pointReads-1)
	}
}
