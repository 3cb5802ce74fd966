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
// over the materialized selections: for every block of a batch — a
// scattered multi-chunk list, one with tail rows, an unsorted one with
// repeats, an empty one and a tail-only one — the payload's bytes are
// those a fresh per-block packing of the block's distinct rows (groupRef)
// makes, its counts are theirs, and its prices are those of the block's
// rows, whatever the other blocks of the batch are; the whole base in
// order is left to the caller; and each (column, chunk) of the base is
// decoded at most once.
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
	packDicts := []*relation.Dict{rdDicts[2], rdDicts[0]}
	counted := &countingPacked{PackedColumnReader: rd, reads: map[[2]int]int{}}
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
	// The batch's IDs, its group IDs and the longest block's.
	total := len(scattered) + len(withTail) + len(unsorted) + len(tailOnly)
	if total = 2*total + max(len(scattered), len(withTail), len(unsorted), len(tailOnly)); sizes != total {
		t.Fatalf("scratch of %d IDs for the batch, want %d", sizes, total)
	}
	for at, n := range counted.reads {
		if n != 1 {
			t.Fatalf("column %d chunk at row %d decoded %d times", at[0], at[1], n)
		}
	}
	if packs[0] != nil {
		t.Fatal("the whole base in order was packed, not left to the caller")
	}
	for b, p := range packs[1:] {
		b++
		rows := [][]uint32{want(b, 2), want(b, 0)}
		_, wantRaw, wantEnc := refPackColumns(packDicts, rows, len(refs[b]))
		rows, counts := groupRef(rows)
		ref, _, _ := refPackColumns(packDicts, rows, len(rows[0]))
		if p.Rows() != len(rows[0]) || p.NumColumns() != 2 || !slices.Equal(p.Counts(), counts) {
			t.Fatalf("block %d: %d rows × %d columns counted %v, want %d × 2 counted %v",
				b, p.Rows(), p.NumColumns(), p.Counts(), len(rows[0]), counts)
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

// groupRef is the obvious grouping of parallel columns: their distinct
// rows in first-occurrence order and each one's count — nil counts when
// every row is distinct, as Pack ships such a block.
func groupRef(cols [][]uint32) ([][]uint32, []uint32) {
	at := map[string]int{}
	out := make([][]uint32, len(cols))
	var counts []uint32
	for i := range cols[0] {
		key := ""
		for _, c := range cols {
			key += fmt.Sprint(c[i], ",")
		}
		k, ok := at[key]
		if !ok {
			k = len(counts)
			at[key] = k
			counts = append(counts, 0)
			for j, c := range cols {
				out[j] = append(out[j], c[i])
			}
		}
		counts[k]++
	}
	if len(counts) == len(cols[0]) {
		return cols, nil
	}
	return out, counts
}

// TestGatherPackGroupsRandomBlocks is the grouped packer's property:
// over random blocks of random columns — low-cardinality ones, and a
// phn-like key that makes every row distinct — the payload's distinct
// rows, expanded by their counts, are the block's bag (relation
// SameTuples), with its X-groups (the first column) in first-occurrence
// order; Σ counts is the block's row count; and the prices are
// naiveSizes of the block's rows.
func TestGatherPackGroupsRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows = 2*DefaultChunkRows + 77
	schema := relation.MustSchema("R", []string{"cc", "city", "phn", "zip"})
	d := relation.New(schema)
	for i := 0; i < rows; i++ {
		d.MustAppend(relation.Tuple{fmt.Sprint("c", rng.Intn(3)), fmt.Sprint("t", rng.Intn(40)),
			fmt.Sprint("p", i), fmt.Sprint("z", rng.Intn(1+rng.Intn(300)))})
	}
	f, _ := writeOpen(t, d)
	for trial := 0; trial < 40; trial++ {
		cols := []int{0, 1, 3}
		if trial%4 == 3 {
			cols = []int{0, 2, 1} // phn-keyed: every row distinct
		}
		blocks := make([][]int32, 1+rng.Intn(4))
		for b := range blocks {
			for i := 0; i < rows; i++ {
				if rng.Intn(1+b*3) == 0 {
					blocks[b] = append(blocks[b], int32(i))
				}
			}
			rng.Shuffle(len(blocks[b])/7, func(i, j int) { blocks[b][i], blocks[b][j] = blocks[b][j], blocks[b][i] })
		}
		packs, err := NewGather(f, rows, make([][]uint32, 4), blocks).Pack(cols, f.Dict, func(n int) []uint32 { return make([]uint32, n) })
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(cols))
		for j, c := range cols {
			names[j] = schema.Attrs()[c]
		}
		for b, p := range packs {
			if p == nil {
				if !slices.Equal(blocks[b], rowRange(rows)) {
					t.Fatalf("trial %d block %d: left out but not the whole base", trial, b)
				}
				continue
			}
			wide := make([]int, len(blocks[b]))
			for k, i := range blocks[b] {
				wide[k] = int(i)
			}
			want, err := d.ProjectRows("p", names, wide)
			if err != nil {
				t.Fatal(err)
			}
			got, err := relation.FromPackedExtract(want.Schema(), p)
			if err != nil {
				t.Fatal(err)
			}
			if got.BagLen() != len(blocks[b]) || !got.SameTuples(want) {
				t.Fatalf("trial %d block %d: %d rows standing for %d, not the block's bag of %d", trial, b, got.Len(), got.BagLen(), want.Len())
			}
			if distinct := cols[1] == 2; distinct && p.Counts() != nil {
				t.Fatalf("trial %d block %d: a block of distinct rows shipped counted", trial, b)
			}
			var firsts, gotFirsts []string
			seen := map[string]bool{}
			for _, tup := range want.Tuples() {
				if !seen[tup[0]] {
					seen[tup[0]] = true
					firsts = append(firsts, tup[0])
				}
			}
			clear(seen)
			for _, tup := range got.Tuples() {
				if !seen[tup[0]] {
					seen[tup[0]] = true
					gotFirsts = append(gotFirsts, tup[0])
				}
			}
			if !slices.Equal(firsts, gotFirsts) {
				t.Fatalf("trial %d block %d: X-groups in order %v, the block's %v", trial, b, gotFirsts, firsts)
			}
			wantRaw, wantEnc := naiveSizes(want)
			if raw, enc, err := p.PayloadSizes(); err != nil || raw != wantRaw || enc != wantEnc {
				t.Fatalf("trial %d block %d: PayloadSizes = %d, %d, %v; naive %d, %d", trial, b, raw, enc, err, wantRaw, wantEnc)
			}
			if raw, enc := got.PayloadSizes(); raw != wantRaw || enc != wantEnc {
				t.Fatalf("trial %d block %d: Relation.PayloadSizes = %d, %d; naive %d, %d", trial, b, raw, enc, wantRaw, wantEnc)
			}
		}
	}
}

// rowRange returns 0, 1, …, n-1.
func rowRange(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
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
