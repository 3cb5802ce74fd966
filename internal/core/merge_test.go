package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
)

// depositRows draws n tuples over randomRelation's schema from wider
// domains than its own, so a deposit carries values the coordinator's
// fragment dictionary lacks.
func depositRows(rng *rand.Rand, n int) []relation.Tuple {
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{fmt.Sprintf("%d", 1000+i),
			fmt.Sprintf("a%d", rng.Intn(5)), fmt.Sprintf("b%d", rng.Intn(5)),
			fmt.Sprintf("c%d", rng.Intn(3)), fmt.Sprintf("d%d", rng.Intn(6))}
	}
	return ts
}

// depositForm ships ts the way the wire delivers a batch: as rows
// (form 0), as dict+ID columns (1) or as a packed payload (2).
func depositForm(t testing.TB, s *relation.Schema, ts []relation.Tuple, form int) *relation.Relation {
	t.Helper()
	r, err := relation.FromTuples(s, ts)
	if err != nil {
		t.Fatal(err)
	}
	switch form {
	case 1:
		dicts, cols := r.Encoded().CompactColumns()
		r, err = relation.FromColumns(s, dicts, cols, len(ts))
	case 2:
		e := r.Encoded()
		dicts, cols := make([]*relation.Dict, e.Arity()), make([][]uint32, e.Arity())
		for j := range cols {
			cols[j], dicts[j] = e.Column(j)
		}
		var p *colstore.Packed
		if p, err = colstore.PackColumns(dicts, cols, len(ts)); err == nil {
			r, err = relation.FromPackedReader(s, p)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPropertyMergeWithDeposits: a coordinator's check over its local
// block merged with 0–3 deposits of each wire form — rows, dict+ID,
// packed — reports the same patterns, in the same order, as a check
// over all those rows as plain tuples, at 1 and 2 workers. One Merge
// serves every trial, as a site's pool does, and some trials are large
// enough for two row shards.
func TestPropertyMergeWithDeposits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var m relation.Merge
	var k engine.Kernel
	for trial := 0; trial < 150; trial++ {
		n := 30
		if trial%25 == 0 {
			n = 6000
		}
		frag := randomRelation(rng, n)
		attrs := frag.Schema().Attrs()
		rows := rng.Perm(n)[:rng.Intn(n+1)]
		local, err := frag.ProjectRows("R_ship", attrs, rows)
		if err != nil {
			t.Fatal(err)
		}
		all := slices.Clone(local.Tuples())
		var deps []*relation.Relation
		for form := 0; form < 3; form++ {
			for d := rng.Intn(4); d > 0; d-- {
				ts := depositRows(rng, rng.Intn(n/3+2))
				deps = append(deps, depositForm(t, local.Schema(), ts, form))
			}
		}
		rng.Shuffle(len(deps), func(i, j int) { deps[i], deps[j] = deps[j], deps[i] })
		for _, d := range deps {
			all = append(all, d.Tuples()...)
		}
		merged, err := gatherWithDeposits(&m, frag, rows, deps)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := relation.FromTuples(local.Schema(), all)
		if err != nil {
			t.Fatal(err)
		}
		c := randomTestCFD(rng)
		want, err := engine.ViolationPatterns(ref, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			got, err := k.ViolationPatterns(merged, c, engine.Opts{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got.Tuples(), want.Tuples(), slices.Equal) {
				t.Fatalf("trial %d, %d workers, %d deposits, cfd %v: merged check %v, want %v", trial, w, len(deps), c, got, want)
			}
		}
	}
}

// gatherWithDeposits is a coordinator's merge of one block: rows of
// frag gathered into m's window ahead of deps.
func gatherWithDeposits(m *relation.Merge, frag *relation.Relation, rows []int, deps []*relation.Relation) (*relation.Relation, error) {
	r32 := make([]int32, len(rows))
	for k, i := range rows {
		r32[k] = int32(i)
	}
	out, err := memFrag{r: frag}.GatherBlocks(m, "R_ship", frag.Schema().Attrs(), [][]int32{r32}, [][]*relation.Relation{deps})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// TestMergeReuseKeepsEarlierPatterns: the patterns a check returns for
// one block stay as they were after the next block's merge overwrites
// the columns the first block was checked over.
func TestMergeReuseKeepsEarlierPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := cfd.MustParse(`r: [a] -> [b]`)
	var m relation.Merge
	var k engine.Kernel
	check := func(frag *relation.Relation) (got, want *relation.Relation) {
		perm := rng.Perm(frag.Len())
		local, err := frag.ProjectRows("R_ship", frag.Schema().Attrs(), perm)
		if err != nil {
			t.Fatal(err)
		}
		ts := depositRows(rng, 20)
		merged, err := gatherWithDeposits(&m, frag, perm, []*relation.Relation{depositForm(t, local.Schema(), ts, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if got, err = k.ViolationPatterns(merged, c, engine.Opts{}); err != nil {
			t.Fatal(err)
		}
		ref, err := relation.FromTuples(local.Schema(), append(slices.Clone(local.Tuples()), ts...))
		if err != nil {
			t.Fatal(err)
		}
		if want, err = engine.ViolationPatterns(ref, c); err != nil {
			t.Fatal(err)
		}
		return got, want
	}
	got1, want1 := check(randomRelation(rng, 40))
	got2, want2 := check(randomRelation(rng, 30))
	if got1.Len() == 0 || !slices.EqualFunc(got1.Tuples(), want1.Tuples(), slices.Equal) {
		t.Errorf("block 1 after block 2's merge: %v, want %v", got1, want1)
	}
	if !slices.EqualFunc(got2.Tuples(), want2.Tuples(), slices.Equal) {
		t.Errorf("block 2: %v, want %v", got2, want2)
	}
}

// TestDetectAssignedSetConcurrentMerges runs two coordinator checks at
// once at one site, both merging deposits full of values the site's
// fragment dictionary lacks over that shared dictionary; each must
// report what it reports alone, and the dictionary must not grow. Under
// -race (make race) a write to it, or a merge buffer two calls share,
// is a failure.
func TestDetectAssignedSetConcurrentMerges(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	coord := NewSite(0, randomRelation(rng, 300), relation.True())
	cfds := []*cfd.CFD{cfd.MustParse(`r: [a] -> [b]`), cfd.MustParse(`q: [c, a] -> [d]`)}
	spec, err := projectedSpec(sharedLHS(cfds), cfds)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]int, spec.K())
	for l := range blocks {
		blocks[l] = l
	}
	attrs := taskAttrs(spec, cfds)
	deposit := func(task string, seed int64) {
		src, err := relation.FromTuples(coord.Schema(), depositRows(rand.New(rand.NewSource(seed)), 200))
		if err != nil {
			t.Fatal(err)
		}
		batches, err := NewSite(1, src, relation.True()).ExtractBlocksBatch(ctx, spec, attrs, blocks)
		if err != nil {
			t.Fatal(err)
		}
		for l, b := range batches {
			if b.Len() > 0 {
				if err := coord.Deposit(ctx, BlockTask(task, l), b, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dictLens := func() (lens []int) {
		e := coord.frag.(memFrag).r.Encoded()
		for j := 0; j < e.Arity(); j++ {
			_, d := e.Column(j)
			lens = append(lens, d.Len())
		}
		return lens
	}
	before := dictLens()
	// The concurrent calls run first, while every deposited value the
	// fragment lacks is still unseen.
	got := make([][]*relation.Relation, 2)
	errs := make([]error, 2)
	for i := range got {
		deposit(fmt.Sprintf("together%d", i), int64(i))
	}
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = coord.DetectAssignedSet(ctx, fmt.Sprintf("together%d", i), spec, blocks, cfds)
		}()
	}
	wg.Wait()
	want := make([][]*relation.Relation, 2)
	for i := range want {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		deposit(fmt.Sprintf("alone%d", i), int64(i))
		if want[i], err = coord.DetectAssignedSet(ctx, fmt.Sprintf("alone%d", i), spec, blocks, cfds); err != nil {
			t.Fatal(err)
		}
		for ci := range cfds {
			if got[i][ci].String() != want[i][ci].String() {
				t.Errorf("call %d, %s: concurrent %v, alone %v", i, cfds[ci].Name, got[i][ci], want[i][ci])
			}
		}
		if want[i][0].Len() == 0 {
			t.Errorf("call %d found no violation to compare", i)
		}
	}
	if after := dictLens(); !slices.Equal(after, before) {
		t.Errorf("the fragment's dictionaries grew from %v to %v values", before, after)
	}
}
