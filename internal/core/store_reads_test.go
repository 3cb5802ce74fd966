package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
)

// TestStoreDeletesAndFoldsMatchMemory drives one store site and one
// in-memory site through the same deltas — deletes of base rows in
// every chunk, of overlay-tail rows and of rows a view has moved — and
// asserts that each delta removes the same tuples in the same order and
// that an incremental session folds to the same reply on both. The
// deleted rows, a few a chunk, are point reads: no delta decodes a
// chunk whole.
func TestStoreDeletesAndFoldsMatchMemory(t *testing.T) {
	ctx := context.Background()
	frag := randomRelation(rand.New(rand.NewSource(14)), gatherRows)
	mem := NewSite(0, frag.Clone(), relation.True())
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	spec := storeTestSpec(t)
	blocks := make([]int, spec.K())
	for l := range blocks {
		blocks[l] = l
	}
	fold := FoldArgs{Session: "s", Spec: spec, Blocks: blocks, Seed: true, CFDs: []*cfd.CFD{
		cfd.MustParse(`v: [a, b] -> [d]`),
		cfd.MustParse(`k: [a, b, c] -> [d] : (_, _, c0 || d1), (_, _, _ || _)`),
	}}
	sameFold := func(label string) {
		t.Helper()
		want, err := mem.FoldDetect(ctx, fold)
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.FoldDetect(ctx, fold)
		if err != nil {
			t.Fatal(err)
		}
		if fold.Seed && want.Added[0].Len() == 0 {
			t.Fatalf("%s: the seed finds no violation: the comparison shows nothing", label)
		}
		if got.ToGen != want.ToGen || len(got.Added) != len(want.Added) || len(got.Removed) != len(want.Removed) {
			t.Fatalf("%s: fold replies differ in shape: store %+v, mem %+v", label, got, want)
		}
		for i := range want.Added {
			sameRelation(t, label+": added", got.Added[i], want.Added[i])
			sameRelation(t, label+": removed", got.Removed[i], want.Removed[i])
		}
		fold.Seed, fold.FromGen = false, got.ToGen
	}
	sameFold("seed")

	insert := func(n, tag int) []relation.Tuple {
		var ins []relation.Tuple
		for i := range n {
			ins = append(ins, relation.Tuple{
				"t" + string(rune('a'+tag)) + string(rune('a'+i%26)) + string(rune('a'+i/26)),
				"a" + string(rune('0'+i%3)), "b" + string(rune('0'+i%2)), "c" + string(rune('0'+i%2)), "dX"})
		}
		return ins
	}
	n := gatherRows
	deltas := []relation.Delta{
		// Base rows, a few in every chunk, and a tail of 40.
		{Deletes: []int{3, 900, colstore.DefaultChunkRows + 5, 2*colstore.DefaultChunkRows + 17, 3*colstore.DefaultChunkRows + 1, n - 1}, Inserts: insert(40, 0)},
		// Tail rows, rows the first deletes moved, and base rows again.
		{Deletes: []int{n + 30, n + 2, 3, colstore.DefaultChunkRows + 5, 7, n - 10}, Inserts: insert(3, 1)},
		// Rows at the end, tail and moved, and a base row in three chunks.
		{Deletes: []int{n + 30, n + 29, n + 20, 1, colstore.DefaultChunkRows, 4 * colstore.DefaultChunkRows}},
	}
	for g, d := range deltas {
		_, cr := countReads(store)
		if _, err := mem.ApplyDelta(ctx, d, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := store.ApplyDelta(ctx, d, ""); err != nil {
			t.Fatal(err)
		}
		if got, want := store.dlog[len(store.dlog)-1].del, mem.dlog[len(mem.dlog)-1].del; !reflect.DeepEqual(got, want) {
			t.Fatalf("delta %d: store removed %q, mem %q", g, got, want)
		}
		if cr.long != 0 {
			t.Fatalf("delta %d: reading the deleted rows decoded %d chunks whole", g, cr.long)
		}
		sameFold("delta " + string(rune('0'+g)))
	}
	if sf := store.frag.(*storeFrag); sf.view == nil || sf.tailRows() == 0 {
		t.Fatal("the deltas left no view or no tail: the test covers less than it says")
	}
}

// TestStoreConstantsColdBuild pins the cold constant-unit state of a
// store site: DetectConstantsLocal answers as the in-memory site does,
// on the file alone and over a tail and a view, and its build reads
// only the chunks of the CFD's X ∪ Y — a strict subset of the schema.
func TestStoreConstantsColdBuild(t *testing.T) {
	ctx := context.Background()
	frag := randomRelation(rand.New(rand.NewSource(15)), gatherRows)
	mem := NewSite(0, frag.Clone(), relation.True())
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	rule := func(name string) *cfd.CFD {
		return cfd.MustParse(name + `: [a] -> [c] : (a0 || c0), (a1 || c1), (_ || _)`)
	}
	same := func(label string, c *cfd.CFD, cold bool) {
		t.Helper()
		sf, cr := countReads(store)
		want, err := mem.DetectConstantsLocal(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.DetectConstantsLocal(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: the rule finds no violation: the comparison shows nothing", label)
		}
		sameRelation(t, label, got, want)
		if cold != (len(cr.reads) > 0) {
			t.Fatalf("%s: the store site made %d reads through its chunk reader", label, len(cr.reads))
		}
		xy, _ := sf.schema.Indices([]string{"a", "c"})
		for at := range cr.reads {
			if !slices.Contains(xy, at[0]) {
				t.Fatalf("%s: the constant state read column %d, outside X ∪ Y %v", label, at[0], xy)
			}
		}
	}
	same("cold", rule("k0"), true)
	d := relation.Delta{Deletes: []int{2, 9000, gatherRows - 1}}
	for i := range 30 {
		d.Inserts = append(d.Inserts, relation.Tuple{"n" + string(rune('a'+i)), "a0", "b0", "c" + string(rune('0'+i%3)), "d0"})
	}
	for _, s := range []*Site{mem, store} {
		if _, err := s.ApplyDelta(ctx, d, ""); err != nil {
			t.Fatal(err)
		}
	}
	same("maintained after a delta", rule("k0"), false)
	same("cold over a tail and a view", rule("k1"), true)
}

// hostileStore writes frag as a store directory whose checksums all
// verify but whose id column's dictionary holds one value fewer than
// its chunks index: the dictionary's last two values become one of the
// same encoded length, so the file keeps its layout and only the last
// row's ID — in the last chunk — lies past the dictionary. A file built
// this way is FuzzFragmentOpen's seed-dictionary-short-of-chunk-ids.
func hostileStore(t *testing.T, frag *relation.Relation) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := f.Schema().Index("id")
	vals := slices.Clone(f.ColumnDict(col).Vals())
	f.Close()
	old := colstore.EncodeDictSection(nil, vals)
	k := len(vals)
	section := colstore.EncodeDictSection(nil, append(vals[:k-2], vals[k-2]+"+"+vals[k-1]))
	path := filepath.Join(dir, colstore.FragmentFile)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(file, old)
	if off < 0 || len(section) != len(old) {
		t.Fatalf("fixture: dictionary section at %d, %d bytes for %d", off, len(section), len(old))
	}
	copy(file[off:], section)
	// Reseal: the dictionary's entry in the segment table (schema
	// first, then one entry per dictionary), then the table's own sum
	// in the footer.
	sum := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	footer := file[len(file)-48:]
	table := file[binary.LittleEndian.Uint64(footer[24:]):][:binary.LittleEndian.Uint64(footer[32:])]
	binary.LittleEndian.PutUint64(table[(1+col)*24+16:], sum(section))
	binary.LittleEndian.PutUint64(footer[40:], sum(table))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestHostileStoreFragment pins the one dictionary check: a fragment
// file whose checksums verify but whose chunk holds an ID past its
// column's dictionary opens, and every reader of that column — the
// site's gather, its shipping, an Apply deleting a row of the bad
// chunk, the kernel reading the file directly — returns an error
// instead of handing the ID on. The Apply logs nothing.
func TestHostileStoreFragment(t *testing.T) {
	ctx := context.Background()
	frag := randomRelation(rand.New(rand.NewSource(16)), gatherRows)
	dir := hostileStore(t, frag)
	n := int32(gatherRows)
	open := func() *Site {
		t.Helper()
		s, err := OpenStoreSite(0, dir, relation.True())
		if err != nil {
			t.Fatalf("opening must not read column segments: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	paths := map[string]func() error{
		"GatherBlocks": func() error {
			_, err := gatherInto(open().frag.(*storeFrag), []string{"a", "id"}, [][]int32{{1, 2, n - 1}})
			return err
		},
		"ShipBlocks scattered": func() error {
			_, err := open().frag.(*storeFrag).ShipBlocks(new(relation.Merge), "p", []string{"id"}, [][]int32{{0, n - 1}})
			return err
		},
		"ShipBlocks whole": func() error {
			_, err := open().frag.(*storeFrag).ShipBlocks(new(relation.Merge), "p", []string{"id", "a"}, [][]int32{rowSpan(0, int(n))})
			return err
		},
		"Apply": func() error {
			s := open()
			_, err := s.ApplyDelta(ctx, relation.Delta{Deletes: []int{int(n - 1)}}, "")
			if m, _ := s.NumTuples(); m != int(n) {
				t.Fatalf("a failed Apply left %d rows of %d", m, n)
			}
			return err
		},
		"DetectSetReader": func() error {
			f, err := colstore.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var k engine.Kernel
			_, err = k.DetectSetReader(f, f.Schema(), []*cfd.CFD{cfd.MustParse(`h: [id] -> [a]`)})
			return err
		},
	}
	for name, read := range paths {
		if err := read(); err == nil {
			t.Errorf("%s over a chunk ID past the dictionary succeeded", name)
		}
	}
	// Nothing was logged: the site reopens with no delta to replay.
	if s := open(); s.gen != 0 {
		t.Fatalf("the refused Apply was logged: the site reopened at generation %d", s.gen)
	}
}
