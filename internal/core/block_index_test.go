package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// scanBlocks is the block index's reference: block l's rows by one
// ascending scan of the routing.
func scanBlocks(ent *sigmaEntry, blocks []int) [][]int32 {
	out := make([][]int32, len(blocks))
	for bi, l := range blocks {
		out[bi] = []int32{}
		for i, a := range ent.assign {
			if int(a) == l {
				out[bi] = append(out[bi], int32(i))
			}
		}
	}
	return out
}

// TestBlockIndexFollowsDeltas pins the σ-entry's block index on both
// backends across a random delta stream: every delta drops it, and the
// one blockRows rebuilds lists each block's rows exactly as a fresh
// ascending scan of the maintained routing does — the routing itself
// equal to a cold one — for the spec's blocks in any requested order.
func TestBlockIndexFollowsDeltas(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	frag := randomRelation(rng, 200)
	mem := NewSite(0, frag.Clone(), relation.True())
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	spec := storeTestSpec(t)
	orders := [][]int{{0, 1, 2}, {2, 0}, {1}}
	for step := 0; step < 30; step++ {
		if step > 0 {
			d := randomDelta(rng, mem.frag.Len(), 1000*step)
			for _, s := range []*Site{mem, store} {
				if _, err := s.ApplyDelta(ctx, d, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		for name, s := range map[string]*Site{"mem": mem, "store": store} {
			ent, _, ok := s.sigma.lookup(spec.Fingerprint())
			if step > 0 && (!ok || ent.index.Load() != nil) {
				t.Fatalf("step %d, %s: the delta left no entry or kept its block index", step, name)
			}
			for _, blocks := range orders {
				got, err := s.blockRows(spec, blocks)
				if err != nil {
					t.Fatal(err)
				}
				ent, _, _ = s.sigma.lookup(spec.Fingerprint())
				if want := scanBlocks(ent, blocks); !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("step %d, %s, blocks %v: index lists %v, scan %v", step, name, blocks, got, want)
				}
			}
			cold, _, err := s.route(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(cold, ent.assign) {
				t.Fatalf("step %d, %s: maintained routing diverged from a cold one", step, name)
			}
		}
	}
}

// TestDetectAssignedSetSharesBlockIndex runs two DetectAssignedSet
// calls at once over one cached σ entry — first while both race to
// build its block index, then over the built one — on both backends:
// each must answer as the same call made alone, and no call may change
// the index once built (under make race, no call writes it either).
func TestDetectAssignedSetSharesBlockIndex(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	frag := randomRelation(rng, 400)
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	cfds := []*cfd.CFD{
		cfd.MustParse(`r: [a] -> [b] : (a0 || _), (_ || _)`),
		cfd.MustParse(`q: [a, c] -> [d] : (a1, _ || _), (_, c0 || _)`),
	}
	spec, err := projectedSpec(sharedLHS(cfds), cfds)
	if err != nil {
		t.Fatal(err)
	}
	calls := [][]int{make([]int, spec.K()), {spec.K() - 1, 0}}
	for l := range calls[0] {
		calls[0][l] = l
	}
	if spec.K() < 2 {
		t.Fatalf("the spec has %d block; the calls want two", spec.K())
	}
	for name, s := range map[string]*Site{"mem": NewSite(0, frag.Clone(), relation.True()), "store": store} {
		want := make([][]*relation.Relation, len(calls))
		for i, blocks := range calls {
			if want[i], err = s.DetectAssignedSet(ctx, fmt.Sprintf("alone%d", i), spec, blocks, cfds); err != nil {
				t.Fatal(err)
			}
		}
		ent, _, _ := s.sigma.lookup(spec.Fingerprint())
		snapshot := make([][]int32, spec.K())
		for l, rows := range ent.blocks() {
			snapshot[l] = slices.Clone(rows)
		}
		ent.index.Store(nil)
		var ref *[][]int32
		for round := 0; round < 3; round++ {
			got := make([][]*relation.Relation, len(calls))
			errs := make([]error, len(calls))
			var wg sync.WaitGroup
			for i, blocks := range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = s.DetectAssignedSet(ctx, fmt.Sprintf("together%d/%d", round, i), spec, blocks, cfds)
				}()
			}
			wg.Wait()
			for i := range calls {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				for ci := range cfds {
					if got[i][ci].String() != want[i][ci].String() {
						t.Fatalf("%s round %d call %d, %s: concurrent %v, alone %v", name, round, i, cfds[ci].Name, got[i][ci], want[i][ci])
					}
				}
			}
			ix := ent.index.Load()
			if round == 0 {
				ref = ix
			}
			if ix != ref || !slices.EqualFunc(*ix, snapshot, slices.Equal) {
				t.Fatalf("%s round %d: the calls changed the block index", name, round)
			}
		}
		if want[0][0].Len() == 0 {
			t.Errorf("%s: no violation to compare", name)
		}
	}
}

// oracleWireForm is ChooseWireForm's rule as it read before a packed
// payload priced its own rows: every relation walks its cells.
func oracleWireForm(r *relation.Relation) (dist.WireForm, int64) {
	raw, encoded := r.Encoded().PayloadSizes()
	form, best := dist.RowForm, raw
	if encoded < raw {
		form, best = dist.ColumnForm, encoded
	}
	if pr, err := r.PackedPayload(); err == nil && pr != nil {
		if packed := pr.PackedSize(); packed < best {
			form, best = dist.PackedForm, packed
		}
	}
	return form, best
}

// TestStoreExtractPricing is the packed pricing's property: over random
// σ-block extracts of a store site — scattered PackColumns blocks over
// the fragment's shared dictionaries, empty ones, and whole-fragment
// PackBase extracts — with empty and \x1f-adjacent values and one value
// in every row, the payload's PayloadSizes equals the extract's
// Encoded().PayloadSizes(), and ChooseWireForm returns the oracle's
// form and size, also once DropPacked (WithPackedShipping(false)) has
// detached the payload.
func TestStoreExtractPricing(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	schema := relation.MustSchema("P", []string{"id", "a", "b", "c", "d"}, "id")
	avals := []string{"", "\x1f", "a\x1f", "\x1fb", "x"}
	frag := relation.New(schema)
	for i := 0; i < 2*8192+500; i++ {
		frag.MustAppend(relation.Tuple{fmt.Sprint(i), avals[rng.Intn(len(avals))],
			fmt.Sprintf("b%d", rng.Intn(3)), "same", fmt.Sprintf("d%d", rng.Intn(40))})
	}
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	attrSets := [][]string{{"a", "c"}, {"id", "d", "b"}, {"a", "b", "c", "d", "id"}, {"c"}}
	forms := map[dist.WireForm]int{}
	for trial := 0; trial < 24; trial++ {
		var patterns [][]string
		for k := 1 + rng.Intn(4); k > 0; k-- {
			patterns = append(patterns, []string{pick(append(avals, cfd.Wildcard, "zz")...), pick("b0", "b1", cfd.Wildcard)})
		}
		if trial%4 == 0 {
			patterns = [][]string{{cfd.Wildcard, cfd.Wildcard}} // one block: the whole fragment, PackBase
		}
		spec, err := NewBlockSpec([]string{"a", "b"}, patterns)
		if err != nil {
			t.Fatal(err)
		}
		attrs := attrSets[trial%len(attrSets)]
		blocks := make([]int, spec.K())
		for l := range blocks {
			blocks[l] = l
		}
		extracts, err := store.ExtractBlocksBatch(ctx, spec, attrs, blocks)
		if err != nil {
			t.Fatal(err)
		}
		all, err := store.ExtractMatching(ctx, spec, attrs)
		if err != nil {
			t.Fatal(err)
		}
		extracts[-1] = all
		for l, r := range extracts {
			pr, err := r.PackedPayload()
			if err != nil || pr == nil {
				t.Fatalf("trial %d block %d: no packed payload (%v)", trial, l, err)
			}
			wantRaw, wantEnc := r.Encoded().PayloadSizes()
			if raw, enc, err := pr.PayloadSizes(); err != nil || raw != wantRaw || enc != wantEnc {
				t.Fatalf("trial %d block %d (%d rows): PayloadSizes = %d, %d, %v; the encoding prices %d, %d",
					trial, l, r.Len(), raw, enc, err, wantRaw, wantEnc)
			}
			form, n := dist.ChooseWireForm(r)
			if wf, wn := oracleWireForm(r); form != wf || n != wn {
				t.Fatalf("trial %d block %d: ChooseWireForm = %v, %d; the oracle %v, %d", trial, l, form, n, wf, wn)
			}
			forms[form]++
			r.DropPacked()
			form, n = dist.ChooseWireForm(r)
			if wf, wn := oracleWireForm(r); form != wf || n != wn || form == dist.PackedForm {
				t.Fatalf("trial %d block %d, dropped: ChooseWireForm = %v, %d; the oracle %v, %d", trial, l, form, n, wf, wn)
			}
		}
	}
	if forms[dist.PackedForm] == 0 {
		t.Fatalf("no extract shipped packed: %v", forms)
	}
}
