package core

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// countingReader wraps a store fragment's chunk reader and counts the
// reads a gather performs, keyed by (column, first row) — the
// core-side sibling of engine's countingPacked.
type countingReader struct {
	relation.PackedColumnReader
	reads map[[2]int]int
	into  map[[2]int]*uint32 // where the last read of (column, row) decoded to
	dirs  int                // ColumnChunks calls: each may load a column segment
	long  int                // reads of more than one row: a chunk decoded whole
}

func (c *countingReader) ReadColumn(i, lo int, dst []uint32) error {
	c.reads[[2]int{i, lo}]++
	c.into[[2]int{i, lo}] = &dst[0]
	if len(dst) > 1 {
		c.long++
	}
	return c.PackedColumnReader.ReadColumn(i, lo, dst)
}

func (c *countingReader) ColumnChunks(i int) (int, error) {
	c.dirs++
	return c.PackedColumnReader.ColumnChunks(i)
}

// gatherInto gathers blocks of sf's attrs into a fresh merge, as a
// site gathers what it checks.
func gatherInto(sf *storeFrag, attrs []string, blocks [][]int32) ([]*relation.Relation, error) {
	return sf.GatherBlocks(new(relation.Merge), "p", attrs, blocks, nil)
}

// countReads installs a fresh counter on the site's store fragment.
func countReads(s *Site) (*storeFrag, *countingReader) {
	sf := s.frag.(*storeFrag)
	cr := &countingReader{PackedColumnReader: sf.frag, reads: map[[2]int]int{}, into: map[[2]int]*uint32{}}
	sf.rd = cr
	return sf, cr
}

// TestGatherDecodesEachChunkOnce pins the point of the batch seam: one
// gather of K = 16 interleaved blocks over a C = 5-chunk fragment
// decodes every (column, chunk) exactly once — C reads per projected
// column where a RowReader pass per block made K·C — with and without
// a view, through a cold σ-routing and through the site's own
// extraction path.
func TestGatherDecodesEachChunkOnce(t *testing.T) {
	ctx := context.Background()
	const k = 16
	attrs := []string{"a", "c", "d"}
	chunks := (gatherRows + colstore.DefaultChunkRows - 1) / colstore.DefaultChunkRows
	for _, view := range []bool{false, true} {
		frag := randomRelation(rand.New(rand.NewSource(8)), gatherRows)
		store, _ := openStoreSiteFor(t, 0, frag, relation.True())
		if view {
			d := relation.Delta{Deletes: []int{1, 9000, 17000, 30000, gatherRows - 2}}
			if _, err := store.ApplyDelta(ctx, d, ""); err != nil {
				t.Fatal(err)
			}
		}
		sf, cr := countReads(store)
		blocks := make([][]int32, k)
		for i := 0; i < sf.Len(); i++ {
			blocks[i%k] = append(blocks[i%k], int32(i))
		}
		if _, err := gatherInto(sf, attrs, blocks); err != nil {
			t.Fatal(err)
		}
		if len(cr.reads) != len(attrs)*chunks {
			t.Fatalf("view=%v: %d distinct (column, chunk) reads, want %d", view, len(cr.reads), len(attrs)*chunks)
		}
		for at, n := range cr.reads {
			if n != 1 {
				t.Fatalf("view=%v: column %d chunk at row %d decoded %d times in one gather", view, at[0], at[1], n)
			}
		}

		// A cold σ-routing reads the fragment through the same reader:
		// each X (column, chunk) exactly once.
		spec := storeTestSpec(t)
		_, cr = countReads(store)
		if _, err := store.SigmaStats(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if len(cr.reads) != len(spec.X)*chunks {
			t.Fatalf("view=%v: cold SigmaStats made %d distinct (column, chunk) reads, want %d", view, len(cr.reads), len(spec.X)*chunks)
		}
		for at, n := range cr.reads {
			if n != 1 {
				t.Fatalf("view=%v: cold SigmaStats decoded column %d chunk at row %d %d times", view, at[0], at[1], n)
			}
		}

		// The site's extraction is one gather: with the routing warm, the
		// same bound holds for ExtractBlocksBatch over every block of a
		// spec.
		_, cr = countReads(store)
		if _, err := store.ExtractBlocksBatch(ctx, spec, attrs, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
		for at, n := range cr.reads {
			if n != 1 {
				t.Fatalf("view=%v: ExtractBlocksBatch decoded column %d chunk at row %d %d times", view, at[0], at[1], n)
			}
		}
	}
}

// TestShipWholeFragmentDecodesNothing pins the sender half of packed
// shipping: a σ-block that is the whole fragment ships as the mapping's
// own columns, so extracting, pricing and shipping it decode no chunk
// through the site's reader, while a scattered batch beside it decodes
// each (column, chunk) it touches once.
func TestShipWholeFragmentDecodesNothing(t *testing.T) {
	ctx := context.Background()
	frag := randomRelation(rand.New(rand.NewSource(12)), gatherRows)
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	spec, err := NewBlockSpec([]string{"a"}, [][]string{{cfd.Wildcard}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.SigmaStats(ctx, spec); err != nil { // route first: routing reads X
		t.Fatal(err)
	}
	_, cr := countReads(store)
	got, err := store.ExtractBlocksBatch(ctx, spec, []string{"a", "c", "d"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Len() != gatherRows {
		t.Fatalf("whole-fragment block has %d rows, want %d", got[0].Len(), gatherRows)
	}
	if form, _ := dist.ChooseWireForm(got[0]); form != dist.PackedForm {
		t.Fatalf("whole-fragment block ships in form %v, not packed", form)
	}
	if len(cr.reads) != 0 || cr.dirs != 0 {
		t.Fatalf("shipping the whole fragment read %v and asked for %d chunk directories", cr.reads, cr.dirs)
	}
	sf, cr := countReads(store)
	var every3, every5 []int32
	for i := int32(0); i < gatherRows; i++ {
		if i%3 == 0 {
			every3 = append(every3, i)
		}
		if i%5 == 1 {
			every5 = append(every5, i)
		}
	}
	if _, err := sf.ShipBlocks(new(relation.Merge), "p", []string{"c", "d"}, [][]int32{every3, every5}); err != nil {
		t.Fatal(err)
	}
	chunks := (gatherRows + colstore.DefaultChunkRows - 1) / colstore.DefaultChunkRows
	if len(cr.reads) != 2*chunks {
		t.Fatalf("a scattered batch read %d (column, chunk)s, want %d", len(cr.reads), 2*chunks)
	}
	for at, n := range cr.reads {
		if n != 1 {
			t.Fatalf("a scattered batch decoded column %d chunk at row %d %d times", at[0], at[1], n)
		}
	}
}

// TestGatherSkipsUntouchedChunks pins the other half: a chunk no block
// of the batch has a row in is never read, and one with fewer than
// pointReads hits has each read as one ID.
func TestGatherSkipsUntouchedChunks(t *testing.T) {
	frag := randomRelation(rand.New(rand.NewSource(9)), gatherRows)
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	sf, cr := countReads(store)
	cr0, cr3 := int32(0), int32(3*colstore.DefaultChunkRows)
	blocks := [][]int32{{cr0 + 4, cr0 + 90, cr3 + 1}, {}, {cr0 + 5, cr3 + 8000}}
	if _, err := gatherInto(sf, []string{"b"}, blocks); err != nil {
		t.Fatal(err)
	}
	col, _ := sf.schema.Index("b")
	want := map[[2]int]int{{col, int(cr0 + 4)}: 1, {col, int(cr0 + 90)}: 1, {col, int(cr0 + 5)}: 1, {col, int(cr3 + 1)}: 1, {col, int(cr3 + 8000)}: 1}
	if !maps.Equal(cr.reads, want) {
		t.Fatalf("reads %v, want %v", cr.reads, want)
	}
	// A batch with no base row at all loads no column segment either.
	_, cr = countReads(store)
	if _, err := gatherInto(sf, []string{"b"}, [][]int32{{}, {}}); err != nil {
		t.Fatal(err)
	}
	if len(cr.reads) != 0 || cr.dirs != 0 {
		t.Fatalf("an empty batch read %v and asked for %d chunk directories", cr.reads, cr.dirs)
	}
}

// TestGatherWholeChunkDecodesInPlace pins the bounce-buffer skip: when
// a block's next rows are exactly a chunk's rows in order — every chunk
// of an all-rows projection — the chunk is decoded straight into the
// block's column, and a second block wanting rows of it copies from
// there instead of decoding again.
func TestGatherWholeChunkDecodesInPlace(t *testing.T) {
	frag := randomRelation(rand.New(rand.NewSource(11)), gatherRows)
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	sf, cr := countReads(store)
	all := make([]int32, gatherRows)
	for i := range all {
		all[i] = int32(i)
	}
	got, err := gatherInto(sf, []string{"c"}, [][]int32{all, {7, 8200, 8201}})
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := got[0].Encoded().Column(0)
	col, _ := sf.schema.Index("c")
	for lo := 0; lo < gatherRows; lo += colstore.DefaultChunkRows {
		at := [2]int{col, lo}
		if cr.reads[at] != 1 || cr.into[at] != &ids[lo] {
			t.Fatalf("chunk at row %d: %d reads, decoded in place: %v", lo, cr.reads[at], cr.into[at] == &ids[lo])
		}
	}
	want, err := frag.ProjectRows("p", []string{"c"}, []int{7, 8200, 8201})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, "second block of a whole-chunk gather", got[1], want)
}

// TestGatherSurfacesCorruptSegment pins that the gather kept both the
// laziness and the verification of the reads it replaced: a store with
// a flipped byte inside one column's segment opens, projects its other
// columns, and fails the first gather that projects the damaged one
// with the segment checksum error.
func TestGatherSurfacesCorruptSegment(t *testing.T) {
	frag := randomRelation(rand.New(rand.NewSource(10)), gatherRows)
	dir := t.TempDir()
	if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
		t.Fatal(err)
	}
	clean, err := colstore.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := clean.Schema().Index("id")
	packed, err := clean.PackBase([]int{bad})
	if err != nil {
		t.Fatal(err)
	}
	payload := packed.Column(0).Chunks[2]
	path := filepath.Join(dir, colstore.FragmentFile)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(file, payload)
	clean.Close()
	if off < 0 {
		t.Fatal("chunk payload not found in the fragment file")
	}
	file[off+len(payload)/2] ^= 0x40
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStoreSite(0, dir, relation.True())
	if err != nil {
		t.Fatalf("opening must not checksum column segments: %v", err)
	}
	defer store.Close()
	sf := store.frag.(*storeFrag)
	blocks := [][]int32{{1, 2, 3}, {40, 20000}}
	if _, err := gatherInto(sf, []string{"a", "d"}, blocks); err != nil {
		t.Fatalf("projecting undamaged columns: %v", err)
	}
	_, err = gatherInto(sf, []string{"a", "id"}, blocks)
	if err == nil || !strings.Contains(err.Error(), "segment checksum mismatch") {
		t.Fatalf("gather over a corrupt segment: got %v, want the segment checksum error", err)
	}
}

// TestBatchEnd table-tests detectAssigned's batch splitter: batches are
// consecutive, keep block order, stay within the row budget, an
// oversize block is a batch of its own, and empty blocks are kept.
func TestBatchEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sizes  []int
		budget int
		want   []int // batch ends
	}{
		{"one batch", []int{3, 4, 2}, 10, []int{3}},
		{"exact fit then spill", []int{6, 4, 1}, 10, []int{2, 3}},
		{"oversize block alone", []int{2, 50, 3, 3}, 10, []int{1, 2, 4}},
		{"oversize first and last", []int{11, 1, 12}, 10, []int{1, 2, 3}},
		{"empty blocks kept", []int{0, 0, 10, 0, 1, 0}, 10, []int{4, 6}},
		{"all empty", []int{0, 0, 0}, 10, []int{3}},
		{"single", []int{7}, 1, []int{1}},
	} {
		var got []int
		for lo := 0; lo < len(tc.sizes); {
			hi := batchEnd(tc.sizes, lo, tc.budget)
			if hi <= lo {
				t.Fatalf("%s: batch at %d does not advance", tc.name, lo)
			}
			n := 0
			for _, size := range tc.sizes[lo:hi] {
				n += size
			}
			if n > tc.budget && hi-lo != 1 {
				t.Fatalf("%s: batch [%d,%d) holds %d rows over budget %d", tc.name, lo, hi, n, tc.budget)
			}
			got = append(got, hi)
			lo = hi
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%s: batch ends %v, want %v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkGatherView times one gather of a store fragment of 125 000
// CUST rows into a merge, all rows in four interleaved blocks, as a
// coordinator gathers what it checks: without a view, whose refs
// ascend, and under a view of about 10⁴ deletes, whose refs the gather
// sorts first (packed (ref, position) keys, no comparator).
func BenchmarkGatherView(b *testing.B) {
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: 125_000, Seed: 1, ErrRate: 0.01})
	dir := b.TempDir()
	if _, err := colstore.WriteRelationDir(dir, data); err != nil {
		b.Fatal(err)
	}
	store, err := OpenStoreSite(0, dir, relation.True())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sf, attrs := store.frag.(*storeFrag), []string{"CC", "AC", "zip", "city"}
	run := func(name string) {
		blocks := make([][]int32, 4)
		for i := 0; i < sf.Len(); i++ {
			blocks[i%4] = append(blocks[i%4], int32(i))
		}
		var m relation.Merge
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sf.GatherBlocks(&m, "p", attrs, blocks, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("view-0")
	var deletes []int
	for i := 0; i < data.Len()-5; i += 12 {
		deletes = append(deletes, i)
	}
	if _, err := store.ApplyDelta(ctx, relation.Delta{Deletes: deletes}, ""); err != nil {
		b.Fatal(err)
	}
	run("view-10k")
}

// BenchmarkColdRouting times a cold σ-routing (SigmaStats after the σ
// cache is dropped) of 125 000 CUST rows: in memory, and at a store
// site with no view, a 5-delete view and a view of about 10⁴ deletes,
// for X = [CC, AC, zip] and X = [CC, zip] (DESIGN.md ablation 18).
func BenchmarkColdRouting(b *testing.B) {
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: 125_000, Seed: 1, ErrRate: 0.01})
	var specs []*BlockSpec
	for _, c := range []*cfd.CFD{workload.CustPatternCFD(255), workload.CustStreetCFD()} {
		spec, err := SpecFromCFD(c)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	run := func(name string, s *Site) {
		for _, spec := range specs {
			b.Run(name+"/X="+strings.Join(spec.X, ","), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dropSigma(s)
					if _, err := s.SigmaStats(ctx, spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	run("mem", NewSite(0, data, relation.True()))
	dir := b.TempDir()
	if _, err := colstore.WriteRelationDir(dir, data); err != nil {
		b.Fatal(err)
	}
	store, err := OpenStoreSite(0, dir, relation.True())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	run("store/view-0", store)
	n := data.Len()
	views := []struct {
		name    string
		deletes []int
	}{
		{"store/view-5", []int{1, 9000, 17000, 30000, n - 2}},
		{"store/view-10k", nil}, // every 12th row of what is left
	}
	for i := 0; i < n-5; i += 12 {
		views[1].deletes = append(views[1].deletes, i)
	}
	for _, v := range views {
		if _, err := store.ApplyDelta(ctx, relation.Delta{Deletes: v.deletes}, ""); err != nil {
			b.Fatal(err)
		}
		run(v.name, store)
	}
}
