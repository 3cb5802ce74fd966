package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

// openStoreSiteFor persists frag into a fresh store directory and
// opens a store-backed site over it, returning the directory so tests
// can reopen it (restart simulation).
func openStoreSiteFor(t *testing.T, id int, frag *relation.Relation, pred relation.Predicate) (*Site, string) {
	t.Helper()
	dir := t.TempDir()
	if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStoreSite(id, dir, pred)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// sameRelation asserts byte-identical relations: same tuples in the
// same order.
func sameRelation(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Counts() == nil && want.Counts() == nil {
		if !reflect.DeepEqual(got.Tuples(), want.Tuples()) {
			t.Fatalf("%s: store-backed site diverged:\n got %v\nwant %v", label, got, want)
		}
		return
	}
	gr, gc := grouped(got)
	wr, wc := grouped(want)
	if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: store-backed site diverged:\n got %v counted %v\nwant %v counted %v", label, gr, gc, wr, wc)
	}
}

// grouped returns r's bag as a grouped block ships it: the distinct
// rows in first-occurrence order and each one's count — a counted
// relation's own rows and counts. Two relations that group alike hold
// the same bag, with its rows first occurring in the same order.
func grouped(r *relation.Relation) ([]relation.Tuple, []int) {
	if cs := r.Counts(); cs != nil {
		counts := make([]int, len(cs))
		for i, c := range cs {
			counts[i] = int(c)
		}
		return r.Tuples(), counts
	}
	at := map[string]int{}
	var rows []relation.Tuple
	var counts []int
	for _, t := range r.Tuples() {
		k, ok := at[t.String()]
		if !ok {
			k = len(rows)
			at[t.String()] = k
			rows, counts = append(rows, t), append(counts, 0)
		}
		counts[k]++
	}
	return rows, counts
}

// dropSigma empties s's σ cache, so the next routing is cold.
func dropSigma(s *Site) {
	s.sigma.mu.Lock()
	defer s.sigma.mu.Unlock()
	clear(s.sigma.m)
}

// storeTestSpec is a σ-partitioning with constants and wildcards over
// the random fixture's attributes.
func storeTestSpec(t *testing.T) *BlockSpec {
	t.Helper()
	spec, err := NewBlockSpec([]string{"a", "b"}, [][]string{
		{"a0", cfd.Wildcard},
		{"a1", "b1"},
		{cfd.Wildcard, cfd.Wildcard},
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestStoreSiteMatchesMemorySite drives the whole read surface of a
// store-backed site against an in-memory site over the same fragment:
// every answer must be byte-identical (same tuples, same order) — a
// store's grouped extract holding the memory site's bag, its distinct
// rows in the order they first occur there (sameRelation).
func TestStoreSiteMatchesMemorySite(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	frag := randomRelation(rng, 700)
	mem := NewSite(0, frag.Clone(), relation.True())
	store, _ := openStoreSiteFor(t, 0, frag, relation.True())

	nm, _ := mem.NumTuples()
	ns, _ := store.NumTuples()
	if nm != ns {
		t.Fatalf("NumTuples: store %d, mem %d", ns, nm)
	}

	spec := storeTestSpec(t)
	wantStats, err := mem.SigmaStats(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	gotStats, err := store.SigmaStats(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("SigmaStats: store %v, mem %v", gotStats, wantStats)
	}

	attrs := []string{"a", "b", "c", "d"}
	blocks := []int{0, 1, 2}
	wantB, err := mem.ExtractBlocksBatch(ctx, spec, attrs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := store.ExtractBlocksBatch(ctx, spec, attrs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	for _, l := range blocks {
		sameRelation(t, "ExtractBlocksBatch", gotB[l], wantB[l])
		if gotB[l].Counts() != nil {
			counted++
		}
	}
	if counted == 0 {
		t.Fatal("no extracted block shipped counted: the grouped comparison was vacuous")
	}
	wantM, err := mem.ExtractMatching(ctx, spec, attrs)
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := store.ExtractMatching(ctx, spec, attrs)
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, "ExtractMatching", gotM, wantM)

	for trial := 0; trial < 8; trial++ {
		c := randomTestCFD(rng)
		wantPats, err := mem.DetectConstantsLocal(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		gotPats, err := store.DetectConstantsLocal(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, "DetectConstantsLocal "+c.Name, gotPats, wantPats)

		// A coordinator checks a rule over a spec its LHS covers: the
		// rule's own.
		cspec, err := SpecFromCFD(c)
		if err != nil {
			t.Fatal(err)
		}
		cblocks := make([]int, cspec.K())
		for l := range cblocks {
			cblocks[l] = l
		}
		wantD, err := mem.DetectAssignedSingle(ctx, "t", cspec, cblocks, c)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := store.DetectAssignedSingle(ctx, "t", cspec, cblocks, c)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, "DetectAssignedSingle "+c.Name, gotD, wantD)
	}

	wantMine, err := mem.MineFrequent(ctx, []string{"a", "b"}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gotMine, err := store.MineFrequent(ctx, []string{"a", "b"}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMine, wantMine) {
		t.Fatalf("MineFrequent: store %v, mem %v", gotMine, wantMine)
	}
}

// randomDelta builds a delta with valid delete indices against n rows
// and fresh inserts keyed after base.
func randomDelta(rng *rand.Rand, n int, base int) relation.Delta {
	var d relation.Delta
	if n > 0 {
		seen := map[int]bool{}
		for k := rng.Intn(3); k > 0; k-- {
			i := rng.Intn(n)
			if !seen[i] {
				seen[i] = true
				d.Deletes = append(d.Deletes, i)
			}
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		d.Inserts = append(d.Inserts, relation.Tuple{
			// Keys continue past the base relation so inserts never
			// duplicate an existing row.
			"k" + string(rune('a'+rng.Intn(26))) + string(rune('a'+base%26)),
			"a" + string(rune('0'+rng.Intn(3))),
			"b" + string(rune('0'+rng.Intn(3))),
			"c" + string(rune('0'+rng.Intn(2))),
			"d" + string(rune('0'+rng.Intn(4))),
		})
		base++
	}
	return d
}

// TestStoreSiteDeltasAndRecovery is the crash/recovery pin: the same
// delta sequence applied to an in-memory and a store-backed site keeps
// every extraction byte-identical, a cold σ-routing at every generation
// (batched or not, through the store's view once deletes begin) equals
// the maintained one, and mining after the stream agrees; reopening the
// store directory replays the WAL and recovers the exact same state
// (tuple order included), so the recovered site's detection output is
// byte-equal to the never-crashed one's.
func TestStoreSiteDeltasAndRecovery(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(33))
	frag := randomRelation(rng, 300)
	mem := NewSite(0, frag.Clone(), relation.True())
	store, dir := openStoreSiteFor(t, 0, frag, relation.True())

	spec := storeTestSpec(t)
	attrs := []string{"a", "b", "c", "d"}
	blocks := []int{0, 1, 2}
	c := cfd.MustParse(`st: [a, b] -> [c] : (_, _ || _), (a0, _ || c0)`)

	// Warm the maintained caches so ApplyDelta exercises the in-place
	// σ-entry and constant-state maintenance on both backends.
	if _, err := mem.SigmaStats(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SigmaStats(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.DetectConstantsLocal(ctx, c); err != nil {
		t.Fatal(err)
	}
	if _, err := store.DetectConstantsLocal(ctx, c); err != nil {
		t.Fatal(err)
	}

	// coldCheck checks the σ entry ApplyDelta maintained at the store
	// site against cold routings: in one batch and in batches of 7 rows
	// on both backends, then — the store's σ cache cleared — through the
	// cold SigmaStats and ExtractMatching, which must also equal the
	// in-memory site's answers.
	coldCheck := func(label string) {
		t.Helper()
		ent, _, ok := store.sigma.lookup(spec.Fingerprint())
		if !ok {
			t.Fatalf("%s: no maintained σ entry", label)
		}
		warmM, err := store.ExtractMatching(ctx, spec, attrs)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Site{"mem": mem, "store": store} {
			for _, batch := range []int{7, gatherBatchRows} {
				assign, counts, err := s.route(spec, batch)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(assign, ent.assign) || !slices.Equal(counts, ent.counts) {
					t.Fatalf("%s: the %s site routed in batches of %d diverged from the maintained entry", label, name, batch)
				}
			}
		}
		dropSigma(store)
		gotStats, err := store.SigmaStats(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, err := mem.SigmaStats(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotStats, wantStats) || !slices.Equal(gotStats, ent.counts) {
			t.Fatalf("%s: cold SigmaStats store %v, mem %v, maintained %v", label, gotStats, wantStats, ent.counts)
		}
		gotM, err := store.ExtractMatching(ctx, spec, attrs)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := mem.ExtractMatching(ctx, spec, attrs)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, label+": cold ExtractMatching", gotM, wantM)
		sameRelation(t, label+": cold vs maintained ExtractMatching", gotM, warmM)
	}
	coldCheck("no delta")

	const deltas = 25
	for g := 0; g < deltas; g++ {
		n, _ := mem.NumTuples()
		d := randomDelta(rng, n, g)
		im, err := mem.ApplyDelta(ctx, d, "")
		if err != nil {
			t.Fatal(err)
		}
		is, err := store.ApplyDelta(ctx, d, "")
		if err != nil {
			t.Fatal(err)
		}
		if im != is {
			t.Fatalf("delta %d: DeltaInfo store %+v, mem %+v", g, is, im)
		}
		coldCheck(fmt.Sprintf("delta %d", g))
	}
	if store.frag.(*storeFrag).view == nil {
		t.Fatal("no delta deleted a row: routing through a view went unchecked")
	}
	mineX := []string{"a", "b"}
	wantP, err := mem.MineFrequent(ctx, mineX, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := store.MineFrequent(ctx, mineX, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantP) == 0 || !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("post-delta MineFrequent: store %v, mem %v", gotP, wantP)
	}
	wantM, err := mem.ExtractMatching(ctx, spec, attrs)
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := store.ExtractMatching(ctx, spec, attrs)
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, "post-delta ExtractMatching", gotM, wantM)
	wantC, err := mem.DetectConstantsLocal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := store.DetectConstantsLocal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, "post-delta DetectConstantsLocal", gotC, wantC)

	// Crash: drop the store site without any shutdown protocol beyond
	// what ApplyDelta already synced, and reopen the directory.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	revived, err := OpenStoreSite(0, dir, relation.True())
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	if got := revived.Generation(); got != deltas {
		t.Fatalf("recovered generation %d, want %d", got, deltas)
	}
	nm, _ := mem.NumTuples()
	nr, _ := revived.NumTuples()
	if nr != nm {
		t.Fatalf("recovered NumTuples %d, mem %d", nr, nm)
	}
	gotM2, err := revived.ExtractMatching(ctx, spec, attrs)
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, "recovered ExtractMatching", gotM2, wantM)
	gotB, err := revived.ExtractBlocksBatch(ctx, spec, attrs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := mem.ExtractBlocksBatch(ctx, spec, attrs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range blocks {
		sameRelation(t, "recovered ExtractBlocksBatch", gotB[l], wantB[l])
	}
	gotC2, err := revived.DetectConstantsLocal(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, "recovered DetectConstantsLocal", gotC2, wantC)
	gotD, err := revived.DetectAssignedSingle(ctx, "t", spec, blocks, c)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := mem.DetectAssignedSingle(ctx, "t", spec, blocks, c)
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, "recovered DetectAssignedSingle", gotD, wantD)

	// Incremental watermarks from before the crash are not servable —
	// the retained fold state died with the process — so a non-seed
	// extraction must report stale (driving the driver to reseed), and
	// a seed must succeed.
	if _, err := revived.ExtractDeltaBlocks(ctx, spec, attrs, blocks, 1); !IsStaleIncremental(err) {
		t.Fatalf("pre-crash watermark: got %v, want stale", err)
	}
	if _, err := revived.ExtractDeltaBlocks(ctx, spec, attrs, blocks, -1); err != nil {
		t.Fatalf("post-crash seed: %v", err)
	}
	// After the seed, new deltas flow incrementally again.
	d := randomDelta(rng, nr, 999)
	if _, err := revived.ApplyDelta(ctx, d, ""); err != nil {
		t.Fatal(err)
	}
	db, err := revived.ExtractDeltaBlocks(ctx, spec, attrs, blocks, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ApplyDelta(ctx, d, ""); err != nil {
		t.Fatal(err)
	}
	want, err := mem.ExtractDeltaBlocks(ctx, spec, attrs, blocks, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if db.ToGen != deltas+1 || want.ToGen != db.ToGen || len(db.Ins) != len(want.Ins) || len(db.Del) != len(want.Del) {
		t.Fatalf("post-seed delta extraction: %+v, in-memory site %+v", db, want)
	}
	for l, r := range want.Ins {
		sameRelation(t, "post-seed delta inserts", db.Ins[l], r)
	}
	for l, r := range want.Del {
		sameRelation(t, "post-seed delta deletes", db.Del[l], r)
	}
}

// TestStoreSiteReplayKeepsIDs pins ID stability across dictionary
// merges and WAL replay: after far more insert-carrying deltas than
// relation's chain depth bound (8), each bringing a fresh value to
// every column, a reopened store site gives every value of every
// column the ID the live site gives it, and both sites' σ statistics
// and assigned detection — served from ID-keyed caches on the live
// site — match the in-memory site's.
func TestStoreSiteReplayKeepsIDs(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	frag := randomRelation(rng, 200)
	mem := NewSite(0, frag.Clone(), relation.True())
	store, dir := openStoreSiteFor(t, 0, frag, relation.True())
	spec := storeTestSpec(t)
	blocks := []int{0, 1, 2}
	c := cfd.MustParse(`st: [a, b] -> [c] : (_, _ || _), (a0, _ || c0)`)
	for _, s := range []*Site{mem, store} {
		if _, err := s.SigmaStats(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}

	const deltas = 100
	for g := 0; g < deltas; g++ {
		d := relation.Delta{Inserts: []relation.Tuple{{
			fmt.Sprintf("n%d", g), fmt.Sprintf("a-%d", g), fmt.Sprintf("b-%d", g), fmt.Sprintf("c-%d", g), fmt.Sprintf("d-%d", g)}}}
		n, _ := mem.NumTuples()
		d.Deletes = randomDelta(rng, n, g).Deletes
		d.Inserts = append(d.Inserts, randomDelta(rng, n, 1000+g).Inserts...)
		for _, s := range []*Site{mem, store} {
			if _, err := s.ApplyDelta(ctx, d, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Replay the same directory beside the live site, so the two can be
	// compared value by value.
	revived, err := OpenStoreSite(0, dir, relation.True())
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	if got := revived.Generation(); got != deltas {
		t.Fatalf("recovered generation %d, want %d", got, deltas)
	}
	live, back := store.frag.(*storeFrag), revived.frag.(*storeFrag)
	for j := range live.ovDicts {
		ld, err := live.ovDict(j)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := back.ovDict(j)
		if err != nil {
			t.Fatal(err)
		}
		if ld.Len() != bd.Len() {
			t.Fatalf("column %d: %d values live, %d replayed", j, ld.Len(), bd.Len())
		}
		for id := 0; id < ld.Len(); id++ {
			if lv, bv := ld.Val(uint32(id)), bd.Val(uint32(id)); lv != bv {
				t.Fatalf("column %d id %d: %q live, %q replayed", j, id, lv, bv)
			}
		}
	}

	wantStats, err := mem.SigmaStats(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := mem.DetectAssignedSingle(ctx, "t", spec, blocks, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		site *Site
	}{{"live", store}, {"replayed", revived}} {
		gotStats, err := s.site.SigmaStats(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%s SigmaStats %v, mem %v", s.name, gotStats, wantStats)
		}
		gotD, err := s.site.DetectAssignedSingle(ctx, "t", spec, blocks, c)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, s.name+" DetectAssignedSingle", gotD, wantD)
	}
}

// TestStoreFragGrowsDictsOnlyForUnseenValues pins that the store
// overlay follows relation.Dict.InternInserts: an insert of known
// values leaves every column reading through its base dictionary, and
// an unseen value chains an overlay on that column alone.
func TestStoreFragGrowsDictsOnlyForUnseenValues(t *testing.T) {
	s := relation.MustSchema("R", []string{"a", "b"})
	dir := t.TempDir()
	if _, err := colstore.WriteRelationDir(dir, relation.MustFromRows(s, []string{"a0", "b0"}, []string{"a1", "b1"})); err != nil {
		t.Fatal(err)
	}
	f, _, err := openStoreFrag(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	grown := func() []bool {
		out := make([]bool, len(f.ovDicts))
		for j, d := range f.ovDicts {
			base, err := f.frag.Dict(j)
			if err != nil {
				t.Fatal(err)
			}
			out[j] = d != base
		}
		return out
	}
	if _, err := f.Apply(relation.Delta{Inserts: []relation.Tuple{{"a1", "b0"}}}); err != nil {
		t.Fatal(err)
	}
	if got := grown(); !reflect.DeepEqual(got, []bool{false, false}) {
		t.Fatalf("known values chained overlays: %v", got)
	}
	if _, err := f.Apply(relation.Delta{Inserts: []relation.Tuple{{"a0", "b2"}}}); err != nil {
		t.Fatal(err)
	}
	if got := grown(); !reflect.DeepEqual(got, []bool{false, true}) {
		t.Fatalf("overlays after an unseen b value: %v, want column b alone", got)
	}
}

// TestStoreFragApplyFailsBeforeLogging pins that a delta the overlay
// cannot apply is never logged: with one byte flipped inside a column
// segment (a delete reads the damaged rows) or inside a dictionary (an
// insert decodes it), Apply fails with the fragment, its version and
// delta.log exactly as they were, and a reopen replays nothing.
func TestStoreFragApplyFailsBeforeLogging(t *testing.T) {
	const sentinel = "d-sentinel-value"
	for _, tc := range []struct {
		name  string
		delta relation.Delta
		// needle returns bytes of the fragment file to damage.
		needle func(*colstore.Fragment) ([]byte, error)
	}{
		{"delete reads a corrupt segment", relation.Delta{Deletes: []int{7, 2}},
			func(fr *colstore.Fragment) ([]byte, error) {
				p, err := fr.PackBase([]int{0})
				if err != nil {
					return nil, err
				}
				return p.Column(0).Chunks[0], nil
			}},
		{"insert decodes a corrupt dictionary", relation.Delta{Inserts: []relation.Tuple{{"900", "a0", "b0", "c0", "d0"}}},
			func(*colstore.Fragment) ([]byte, error) { return []byte(sentinel), nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frag := randomRelation(rand.New(rand.NewSource(8)), 300)
			frag.MustAppend(relation.Tuple{"300", "a0", "b0", "c0", sentinel})
			dir := t.TempDir()
			if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
				t.Fatal(err)
			}
			clean, err := colstore.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			needle, err := tc.needle(clean)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, colstore.FragmentFile)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := bytes.Index(file, needle)
			clean.Close()
			if off < 0 {
				t.Fatal("needle not found in the fragment file")
			}
			file[off+len(needle)/2] ^= 0x40
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}

			f, gen, err := openStoreFrag(dir)
			if err != nil {
				t.Fatalf("opening must not checksum segments or dictionaries: %v", err)
			}
			logPath := filepath.Join(dir, colstore.DeltaLogFile)
			logSize := func() int64 {
				st, err := os.Stat(logPath)
				if err != nil {
					t.Fatal(err)
				}
				return st.Size()
			}
			n, size := f.Len(), logSize()
			if _, err := f.Apply(tc.delta); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("Apply over the damaged byte: got %v, want a checksum error", err)
			}
			if f.Len() != n || logSize() != size || f.view != nil {
				t.Fatalf("failed Apply changed the fragment: len %d→%d, delta.log %d→%d bytes, view %v",
					n, f.Len(), size, logSize(), f.view != nil)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			re, regen, err := openStoreFrag(dir)
			if err != nil {
				t.Fatalf("reopen replayed the failed delta: %v", err)
			}
			defer re.Close()
			if gen != 0 || regen != 0 {
				t.Fatalf("generations %d at open, %d at reopen; want 0 and 0", gen, regen)
			}
		})
	}
}

// TestStoreSitePredicateStillEnforced pins that a store-backed site
// rejects delta inserts violating its fragment predicate, like any
// site must (Di = σFi(D) is a detection invariant).
func TestStoreSitePredicateStillEnforced(t *testing.T) {
	ctx := context.Background()
	s := relation.MustSchema("R", []string{"id", "a", "b", "c", "d"}, "id")
	frag := relation.MustFromRows(s, []string{"0", "a0", "b0", "c0", "d0"})
	pred := relation.And(relation.Eq("a", "a0"))
	store, _ := openStoreSiteFor(t, 0, frag, pred)
	bad := relation.Delta{Inserts: []relation.Tuple{{"1", "a1", "b0", "c0", "d0"}}}
	if _, err := store.ApplyDelta(ctx, bad, ""); err == nil {
		t.Fatal("predicate-violating insert was accepted")
	}
	if got := store.Generation(); got != 0 {
		t.Fatalf("rejected delta advanced the generation to %d", got)
	}
	ok := relation.Delta{Inserts: []relation.Tuple{{"1", "a0", "b1", "c1", "d1"}}}
	if _, err := store.ApplyDelta(ctx, ok, ""); err != nil {
		t.Fatal(err)
	}
}

// gatherRows is the fixture size of the gather tests: four full chunks
// and a short fifth, so lists can miss chunks, straddle them and end in
// a partial one.
const gatherRows = 4*colstore.DefaultChunkRows + 2232

// packedBytes flattens a packed payload to what the wire would carry.
func packedBytes(t *testing.T, pr relation.PackedColumnReader) [][]byte {
	t.Helper()
	p, ok := pr.(*colstore.Packed)
	if !ok {
		t.Fatalf("packed payload is a %T", pr)
	}
	var out [][]byte
	for j := 0; j < p.NumColumns(); j++ {
		c := p.Column(j)
		out = append(out, c.Dict)
		out = append(out, c.Chunks...)
	}
	return out
}

// TestGatherMatchesProjectRows pins both batch projections of a store
// fragment against relation.ProjectRows on its in-memory mirror, block
// by block, in every overlay state — whole-fragment, scattered, empty,
// unsorted and multi-chunk blocks, with a tail, a view or both: the
// gather reads the same rows in the same order under the fragment's
// own dictionaries, and the shipped block is a packed extract of the
// same bag (sameRelation: its distinct rows in first-occurrence order
// and their counts) whose bytes are those PackColumns makes of the
// mirror's distinct rows — or, for the in-order whole fragment with no
// overlay, PackBase's (the mapping's own bytes).
func TestGatherMatchesProjectRows(t *testing.T) {
	ctx := context.Background()
	attrs := []string{"b", "id", "d"}
	insert := func(n int) relation.Delta {
		var d relation.Delta
		for i := 0; i < n; i++ {
			d.Inserts = append(d.Inserts, relation.Tuple{
				"n" + string(rune('a'+i%26)) + string(rune('a'+i/26)), "a1", "b" + string(rune('0'+i%5)), "c0", "dX"})
		}
		return d
	}
	remove := relation.Delta{Deletes: []int{3, colstore.DefaultChunkRows, 2*colstore.DefaultChunkRows + 17, gatherRows - 1}}
	for _, tc := range []struct {
		name   string
		deltas []relation.Delta
	}{
		{"fresh", nil},
		{"tail", []relation.Delta{insert(40)}},
		{"view", []relation.Delta{remove}},
		{"tail+view", []relation.Delta{insert(40), remove, insert(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frag := randomRelation(rand.New(rand.NewSource(5)), gatherRows)
			mem := NewSite(0, frag.Clone(), relation.True())
			store, _ := openStoreSiteFor(t, 0, frag, relation.True())
			for _, d := range tc.deltas {
				if _, err := mem.ApplyDelta(ctx, d, ""); err != nil {
					t.Fatal(err)
				}
				if _, err := store.ApplyDelta(ctx, d, ""); err != nil {
					t.Fatal(err)
				}
			}
			sf := store.frag.(*storeFrag)
			n := sf.Len()
			mirror := mem.Fragment()
			if n != mirror.Len() {
				t.Fatalf("store holds %d rows, mirror %d", n, mirror.Len())
			}
			all := make([]int32, n)
			var sigma, gaps, sparse []int32
			for i := range all {
				all[i] = int32(i)
				if i%7 == 3 {
					sigma = append(sigma, int32(i))
				}
				if k := i / colstore.DefaultChunkRows; k == 0 || k == 3 {
					gaps = append(gaps, int32(i)) // misses chunks 1, 2 and 4 entirely
				}
				if i%colstore.DefaultChunkRows < 3 {
					sparse = append(sparse, int32(i)) // fewer than pointReads rows per chunk
				}
			}
			blocks := [][]int32{
				sigma, {}, gaps, sparse, all,
				{int32(n - 1), 5, 20000, 5, 3, int32(n - 1)}, // the seam sorts what a caller did not
				all[colstore.DefaultChunkRows : 2*colstore.DefaultChunkRows],
			}
			got, err := gatherInto(sf, attrs, blocks)
			if err != nil {
				t.Fatal(err)
			}
			shipped, err := sf.ShipBlocks(new(relation.Merge), "p", attrs, blocks)
			if err != nil {
				t.Fatal(err)
			}
			idx, _ := sf.schema.Indices(attrs)
			for b, rows := range blocks {
				wide := make([]int, len(rows))
				for k, i := range rows {
					wide[k] = int(i)
				}
				want, err := mirror.ProjectRows("p", attrs, wide)
				if err != nil {
					t.Fatal(err)
				}
				if got[b].Len() != len(rows) {
					t.Fatalf("block %d: %d rows, want %d", b, got[b].Len(), len(rows))
				}
				sameRelation(t, tc.name, got[b], want)
				for j, c := range idx {
					if d, _ := sf.ovDict(c); got[b].Encoded().ColumnDict(j) != d {
						t.Fatalf("block %d column %d does not share the fragment's dictionary", b, j)
					}
				}
				if pr, _ := got[b].PackedPayload(); pr != nil {
					t.Fatalf("block %d: a gathered block carries a packed payload", b)
				}
				sameRelation(t, tc.name+" shipped", shipped[b], want)
				pr, adopted := shipped[b].PackedPayload()
				if pr == nil || adopted {
					t.Fatalf("block %d: shipped block is not a packed extract (adopted %v)", b, adopted)
				}
				whole := b == 4 && len(tc.deltas) == 0
				var ref relation.PackedColumnReader
				if whole { // the whole fragment in order ships the stored bytes
					ref, err = sf.frag.PackBase(idx)
				} else {
					distinct, _ := grouped(want)
					dr, err := relation.FromTuples(want.Schema(), distinct)
					if err != nil {
						t.Fatal(err)
					}
					e := dr.Encoded()
					dicts, cols := make([]*relation.Dict, len(idx)), make([][]uint32, len(idx))
					for j := range idx {
						cols[j], dicts[j] = e.Column(j)
					}
					ref, err = colstore.PackColumns(dicts, cols, len(distinct))
				}
				if err != nil {
					t.Fatal(err)
				}
				gb, wb := packedBytes(t, pr), packedBytes(t, ref)
				if !reflect.DeepEqual(gb, wb) {
					t.Fatalf("block %d: packed payload differs from the per-block projection's", b)
				}
				if whole && &gb[1][0] != &wb[1][0] {
					t.Fatalf("full in-order block re-encoded its chunks instead of taking PackBase")
				}
			}

			// Unsorted entries in wanted, through the site (a repeated
			// one is refused: TestSiteRejectsMalformedArgs).
			spec := storeTestSpec(t)
			wanted := []int{2, 0, 1}
			gotB, err := store.ExtractBlocksBatch(ctx, spec, attrs, wanted)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := mem.ExtractBlocksBatch(ctx, spec, attrs, wanted)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotB) != 3 {
				t.Fatalf("ExtractBlocksBatch returned %d blocks, want 3", len(gotB))
			}
			for l := range wantB {
				sameRelation(t, "unsorted wanted", gotB[l], wantB[l])
			}
		})
	}
}

// countedSeeds counts the counted blocks its site ships from
// ExtractDeltaBlocks.
type countedSeeds struct {
	SiteAPI
	counted *atomic.Int64
}

func (c countedSeeds) ExtractDeltaBlocks(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int, fromGen int64) (*DeltaBlocks, error) {
	out, err := c.SiteAPI.ExtractDeltaBlocks(ctx, spec, attrs, wanted, fromGen)
	if err == nil {
		for _, r := range out.Ins {
			if r.Counts() != nil {
				c.counted.Add(1)
			}
		}
	}
	return out, err
}

// TestStoreIncrementalSeedShipsCounted pins the incremental seed over
// store sites, whose blocks ship grouped, against the same seed over
// memory sites, whose blocks ship as plain bags: at least one seed
// block ships counted, and the patterns, ShippedTuples and
// DeltaShippedTuples are the memory cluster's — the coordinators fold
// each counted row as its count of tuples, and the driver bills the
// bag.
func TestStoreIncrementalSeedShipsCounted(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	data := relation.New(empSchema())
	for id := 0; id < 400; id++ {
		data.MustAppend(randomEMPTuple(rng, id))
	}
	h, err := partition.Uniform(data, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	var counted atomic.Int64
	sites := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		s, _ := openStoreSiteFor(t, i, frag, mem.preds[i])
		sites[i] = countedSeeds{SiteAPI: s, counted: &counted}
	}
	store, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	cfds := []*cfd.CFD{phi1, phi2, phi3}
	var res [2]*Result
	for k, cl := range []*Cluster{mem, store} {
		p, err := CompileSet(ctx, cl, cfds, PatDetectRT, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if res[k], err = p.DetectIncremental(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if counted.Load() == 0 {
		t.Fatal("no seed block shipped counted: the comparison is vacuous")
	}
	want, got := res[0], res[1]
	for i := range cfds {
		if g, w := got.PerCFD[i].String(), want.PerCFD[i].String(); g != w || want.PerCFD[i].Len() == 0 {
			t.Fatalf("cfd %d: the store seed reports\n%s\nthe memory seed\n%s", i, g, w)
		}
	}
	if got.ShippedTuples != want.ShippedTuples || got.DeltaShippedTuples != want.DeltaShippedTuples || want.DeltaShippedTuples == 0 {
		t.Fatalf("store seed shipped %d tuples, %d on the delta channel; memory seed %d, %d",
			got.ShippedTuples, got.DeltaShippedTuples, want.ShippedTuples, want.DeltaShippedTuples)
	}
}
