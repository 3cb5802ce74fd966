package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// The incremental-equivalence property: after ANY sequence of deltas,
// DetectIncremental's violation output, ShippedTuples, and ModeledTime
// are byte-identical to (a) a fresh Detect on the same compiled plan
// over the mutated cluster and (b) a Detect over a virgin cluster
// rebuilt from the mutated fragments with no caches or retained state
// at all — leg (b) is the oracle that would catch maintained caches
// and incremental folds drifting together.

// cloneCluster rebuilds the cluster from deep copies of its current
// fragments: fresh sites, fresh caches, no sessions.
func cloneCluster(t *testing.T, cl *Cluster) *Cluster {
	t.Helper()
	sites := make([]SiteAPI, cl.N())
	for i := 0; i < cl.N(); i++ {
		base, ok := cl.Site(i).(interface{ Fragment() *relation.Relation })
		if !ok {
			t.Fatalf("site %d does not expose its fragment", i)
		}
		sites[i] = NewSite(i, base.Fragment().Clone(), cl.preds[i])
	}
	virgin, err := NewCluster(cl.Schema(), sites)
	if err != nil {
		t.Fatal(err)
	}
	return virgin
}

func assertIncEquiv(t *testing.T, label string, inc, fresh, virgin *Result) {
	t.Helper()
	if !inc.Incremental {
		t.Fatalf("%s: incremental run not marked Incremental", label)
	}
	for i := range inc.PerCFD {
		if got, want := inc.PerCFD[i].String(), fresh.PerCFD[i].String(); got != want {
			t.Fatalf("%s: cfd %d patterns diverge from fresh:\n%s\nvs\n%s", label, i, got, want)
		}
		if got, want := inc.PerCFD[i].String(), virgin.PerCFD[i].String(); got != want {
			t.Fatalf("%s: cfd %d patterns diverge from virgin:\n%s\nvs\n%s", label, i, got, want)
		}
	}
	if inc.ShippedTuples != fresh.ShippedTuples || inc.ShippedTuples != virgin.ShippedTuples {
		t.Fatalf("%s: ShippedTuples inc=%d fresh=%d virgin=%d",
			label, inc.ShippedTuples, fresh.ShippedTuples, virgin.ShippedTuples)
	}
	if inc.ModeledTime != fresh.ModeledTime || inc.ModeledTime != virgin.ModeledTime {
		t.Fatalf("%s: ModeledTime inc=%v fresh=%v virgin=%v",
			label, inc.ModeledTime, fresh.ModeledTime, virgin.ModeledTime)
	}
}

// empPools are small attribute domains so random EMP traffic keeps
// creating and resolving violations of phi1/phi2/phi3.
var empPools = map[string][]string{
	"title":  {"MTS", "DMTS", "VP"},
	"CC":     {"44", "01", "31"},
	"AC":     {"131", "908", "20", "10"},
	"street": {"Mayfield", "Crichton", "Mtn Ave", "Spuistraat"},
	"city":   {"EDI", "NYC", "MH", "AMS", "ROT"},
	"zip":    {"EH4 8LE", "EH2 4HF", "07974", "1012 WR"},
	"salary": {"75k", "95k", "110k"},
}

func randomEMPTuple(rng *rand.Rand, id int) relation.Tuple {
	pick := func(a string) string { p := empPools[a]; return p[rng.Intn(len(p))] }
	return relation.Tuple{
		fmt.Sprintf("n%d", id),
		fmt.Sprintf("name%d", rng.Intn(40)),
		pick("title"),
		pick("CC"),
		pick("AC"),
		fmt.Sprintf("%07d", rng.Intn(100)),
		pick("street"),
		pick("city"),
		pick("zip"),
		pick("salary"),
	}
}

// randomEMPDeltas builds one delta per site. With routeByTitle (the
// Fig. 1(b) predicate partitioning), inserts land at the site whose
// predicate they satisfy, keeping Di = σFi(D) an invariant the pruning
// logic relies on.
func randomEMPDeltas(rng *rand.Rand, cl *Cluster, routeByTitle bool, idSeq *int) map[int]relation.Delta {
	titleSite := map[string]int{"MTS": 0, "DMTS": 1, "VP": 2}
	deltas := make(map[int]relation.Delta)
	for i := 0; i < cl.N(); i++ {
		var d relation.Delta
		frag := cl.Site(i).(interface{ Fragment() *relation.Relation }).Fragment()
		if n := frag.Len(); n > 0 && rng.Intn(2) == 0 {
			d.Deletes = append(d.Deletes, rng.Intn(n))
		}
		deltas[i] = d
	}
	for k := 2 + rng.Intn(3); k > 0; k-- {
		*idSeq++
		t := randomEMPTuple(rng, *idSeq)
		site := rng.Intn(cl.N())
		if routeByTitle {
			site = titleSite[t[2]]
		}
		d := deltas[site]
		d.Inserts = append(d.Inserts, t)
		deltas[site] = d
	}
	return deltas
}

func TestSingleIncrementalEquivalenceEMP(t *testing.T) {
	ctx := context.Background()
	rules := map[string]*cfd.CFD{"phi1": phi1, "phi2": phi2, "phi3": phi3}
	for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
		for name, rule := range rules {
			for _, part := range []string{"fig1b", "uniform4"} {
				label := fmt.Sprintf("%v/%s/%s", algo, name, part)
				t.Run(label, func(t *testing.T) {
					var cl *Cluster
					routed := part == "fig1b"
					if routed {
						cl = fig1bCluster(t)
					} else {
						cl = uniformCluster(t, 4, 11)
					}
					sp, err := compileOne(ctx, cl, rule, algo, Options{})
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(42))
					idSeq := 100
					for step := 0; step < 8; step++ {
						inc, err := sp.DetectDelta(ctx, randomEMPDeltas(rng, cl, routed, &idSeq))
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						fresh, err := sp.Detect(ctx)
						if err != nil {
							t.Fatal(err)
						}
						vsp, err := compileOne(ctx, cloneCluster(t, cl), rule, algo, Options{})
						if err != nil {
							t.Fatal(err)
						}
						virgin, err := vsp.Detect(ctx)
						if err != nil {
							t.Fatal(err)
						}
						assertIncEquiv(t, fmt.Sprintf("%s step %d", label, step), inc, fresh, virgin)
					}
				})
			}
		}
	}
}

// TestSetIncrementalEquivalenceEMP exercises the multi-CFD path with a
// genuinely merged cluster: [CC] is contained in every other LHS, so
// clusterByLHS folds all four rules into one shared-σ unit.
func TestSetIncrementalEquivalenceEMP(t *testing.T) {
	ctx := context.Background()
	cfds := []*cfd.CFD{
		phi1, phi2, phi3,
		cfd.MustParse(`phi4: [CC] -> [city] : (01 || _)`),
	}
	for _, clustered := range []bool{true, false} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			cl := uniformCluster(t, 3, 5)
			p, err := CompileSet(ctx, cl, cfds, PatDetectRT, Options{}, clustered)
			if err != nil {
				t.Fatal(err)
			}
			if clustered && len(p.clusters) >= len(cfds) {
				t.Fatalf("fixture did not merge any clusters: %v", p.clusters)
			}
			rng := rand.New(rand.NewSource(9))
			idSeq := 500
			for step := 0; step < 8; step++ {
				inc, err := p.DetectDelta(ctx, randomEMPDeltas(rng, cl, false, &idSeq))
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				fresh, err := p.Detect(ctx)
				if err != nil {
					t.Fatal(err)
				}
				vp, err := CompileSet(ctx, cloneCluster(t, cl), cfds, PatDetectRT, Options{}, clustered)
				if err != nil {
					t.Fatal(err)
				}
				virgin, err := vp.Detect(ctx)
				if err != nil {
					t.Fatal(err)
				}
				assertIncEquiv(t, fmt.Sprintf("step %d", step), inc, fresh, virgin)
			}
		})
	}
}

// TestIncrementalEquivalenceWorkloads runs the randomized property on
// the paper's generated datasets (CUST and XREF, overlapping rule
// pairs, ≥2 partitionings each) with the shared delta streams.
func TestIncrementalEquivalenceWorkloads(t *testing.T) {
	ctx := context.Background()
	type wl struct {
		name   string
		data   *relation.Relation
		cfds   []*cfd.CFD
		stream func(*relation.Relation, workload.DeltaConfig) *workload.DeltaStream
	}
	wls := []wl{
		{
			name: "cust",
			data: workload.Cust(workload.CustConfig{N: 1500, Seed: 3, ErrRate: 0.03}),
			cfds: []*cfd.CFD{workload.CustPatternCFD(24), workload.CustStreetCFD()},
			stream: func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
				return workload.CustDeltaStream(f, c)
			},
		},
		{
			name: "xref",
			data: workload.XRef(workload.XRefConfig{N: 1500, Seed: 4, ErrRate: 0.03}),
			cfds: []*cfd.CFD{workload.XRefCFD(), workload.XRefCFD2()},
			stream: func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
				return workload.XRefDeltaStream(f, c)
			},
		},
	}
	for _, w := range wls {
		for _, sitesN := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/%dsites", w.name, sitesN), func(t *testing.T) {
				h, err := partition.Uniform(w.data.Clone(), sitesN, int64(sitesN))
				if err != nil {
					t.Fatal(err)
				}
				cl, err := FromHorizontal(h)
				if err != nil {
					t.Fatal(err)
				}
				p, err := CompileSet(ctx, cl, w.cfds, PatDetectRT, Options{}, true)
				if err != nil {
					t.Fatal(err)
				}
				streams := workload.SplitStreams(h.Fragments,
					workload.DeltaConfig{Seed: 77, Inserts: 5, Updates: 3, Deletes: 2, ErrRate: 0.1}, w.stream)
				for step := 0; step < 4; step++ {
					deltas := make(map[int]relation.Delta, len(streams))
					for i, ds := range streams {
						deltas[i] = ds.Next()
					}
					inc, err := p.DetectDelta(ctx, deltas)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					fresh, err := p.Detect(ctx)
					if err != nil {
						t.Fatal(err)
					}
					vp, err := CompileSet(ctx, cloneCluster(t, cl), w.cfds, PatDetectRT, Options{}, true)
					if err != nil {
						t.Fatal(err)
					}
					virgin, err := vp.Detect(ctx)
					if err != nil {
						t.Fatal(err)
					}
					assertIncEquiv(t, fmt.Sprintf("%s step %d", w.name, step), inc, fresh, virgin)
					if step > 0 && inc.ShippedTuples > 0 && inc.DeltaShippedTuples >= inc.ShippedTuples {
						t.Fatalf("step %d: delta channel (%d) shipped no less than full recompute (%d)",
							step, inc.DeltaShippedTuples, inc.ShippedTuples)
					}
				}
			})
		}
	}
}

// TestIncrementalShipsLessAt1Percent pins the acceptance floor: at
// |ΔD|/|D| = 1%, the incremental round ships ≥5× fewer tuples than the
// full recompute it replaces, while reporting identical results.
func TestIncrementalShipsLessAt1Percent(t *testing.T) {
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: 8000, Seed: 12, ErrRate: 0.02})
	h, err := partition.Uniform(data, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileSet(ctx, cl, []*cfd.CFD{workload.CustPatternCFD(128), workload.CustStreetCFD()},
		PatDetectRT, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 seeds (ships everything once).
	if _, err := p.DetectIncremental(ctx); err != nil {
		t.Fatal(err)
	}
	// One 1% delta round.
	perSite := data.Len() / 100 / cl.N()
	streams := workload.SplitStreams(h.Fragments,
		workload.DeltaConfig{Seed: 5, Inserts: perSite / 2, Updates: perSite / 4, Deletes: perSite / 4, ErrRate: 0.1},
		func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
			return workload.CustDeltaStream(f, c)
		})
	deltas := make(map[int]relation.Delta, len(streams))
	for i, ds := range streams {
		deltas[i] = ds.Next()
	}
	inc, err := p.DetectDelta(ctx, deltas)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ShippedTuples != fresh.ShippedTuples {
		t.Fatalf("equivalent accounting diverged: inc %d vs fresh %d", inc.ShippedTuples, fresh.ShippedTuples)
	}
	if inc.DeltaShippedTuples*5 > inc.ShippedTuples {
		t.Fatalf("1%% delta shipped %d tuples, full recompute ships %d — less than the 5× floor",
			inc.DeltaShippedTuples, inc.ShippedTuples)
	}
	// Non-vacuousness: the workload genuinely violates, and both modes
	// report the identical non-empty pattern sets.
	total := 0
	for i := range inc.PerCFD {
		if inc.PerCFD[i].String() != fresh.PerCFD[i].String() {
			t.Fatalf("cfd %d patterns diverge", i)
		}
		total += inc.PerCFD[i].Len()
	}
	if total == 0 {
		t.Fatal("fixture produced no violations — the equivalence assertions are vacuous")
	}
}

// TestIncrementalFallbacks drives the reseed path — a delta log trimmed
// past the watermark, which must transparently fall back to a full fold
// and keep the equivalence — and a delete-heavy history (ratio), which
// must fold into the same session and keep it too.
func TestIncrementalFallbacks(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, cl *Cluster, sp *Plan) {
		t.Helper()
		inc, err := sp.DetectIncremental(ctx)
		if err != nil {
			t.Fatal(err)
		}
		vsp, err := compileOne(ctx, cloneCluster(t, cl), sp.cfds[0], PatDetectS, Options{})
		if err != nil {
			t.Fatal(err)
		}
		virgin, err := vsp.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sp.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertIncEquiv(t, "fallback", inc, fresh, virgin)
	}

	t.Run("delete-ratio", func(t *testing.T) {
		cl := uniformCluster(t, 3, 8)
		sp, err := compileOne(ctx, cl, phi1, PatDetectS, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.DetectIncremental(ctx); err != nil {
			t.Fatal(err)
		}
		seeded := sp.inc[0].session
		if _, err := cl.Site(0).ApplyDelta(ctx, relation.Delta{Deletes: []int{0}}, ""); err != nil {
			t.Fatal(err)
		}
		check(t, cl, sp)
		// Deleting everything outside CC 31 — more than half the
		// instance — folds into the same session: a group state holds
		// exactly the current multiset, so nothing is cheaper to rebuild.
		for i := 0; i < cl.N(); i++ {
			var d relation.Delta
			for k, tup := range cl.Site(i).(*Site).Fragment().Tuples() {
				if tup[3] != "31" {
					d.Deletes = append(d.Deletes, k)
				}
			}
			if _, err := cl.Site(i).ApplyDelta(ctx, d, ""); err != nil {
				t.Fatal(err)
			}
		}
		check(t, cl, sp)
		if sp.inc[0].session != seeded {
			t.Fatal("a delete-heavy round reseeded")
		}
	})

	t.Run("log-trimmed", func(t *testing.T) {
		cl := uniformCluster(t, 3, 9)
		sp, err := compileOne(ctx, cl, phi1, PatDetectS, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.DetectIncremental(ctx); err != nil {
			t.Fatal(err)
		}
		// More applies than the log retains, without detecting between.
		for k := 0; k < deltaLogCap+40; k++ {
			d := relation.Delta{Inserts: []relation.Tuple{{
				fmt.Sprintf("t%d", k), "x", "MTS", "44",
				fmt.Sprintf("%d", k%3), "1234567", "Mayfield", "NYC", "EH4 8LE", "80k"}}}
			if _, err := cl.Site(0).ApplyDelta(ctx, d, ""); err != nil {
				t.Fatal(err)
			}
		}
		check(t, cl, sp)
	})
}

// TestIncrementalBalancedStreamKeepsSession: a stream that inserts as
// many tuples as it deletes keeps |D| fixed while the deletes a session
// has folded grow without bound. The session lives on under one key
// for 160 rounds — over three times the 50 rounds after which a
// delete-count threshold of |D|/2 would have reseeded it — and every
// round equals a fresh Detect and a virgin cluster.
func TestIncrementalBalancedStreamKeepsSession(t *testing.T) {
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: 400, Seed: 21, ErrRate: 0.05})
	h, err := partition.Uniform(data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	rule := workload.CustStreetCFD()
	sp, err := compileOne(ctx, cl, rule, PatDetectS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.DetectIncremental(ctx); err != nil {
		t.Fatal(err)
	}
	session := sp.inc[0].session
	// One insert, one update and one delete per site and round: four
	// deletes a round against 400 tuples.
	streams := workload.SplitStreams(h.Fragments,
		workload.DeltaConfig{Seed: 31, Inserts: 1, Updates: 1, Deletes: 1, ErrRate: 0.1},
		func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
			return workload.CustDeltaStream(f, c)
		})
	for round := 0; round < 160; round++ {
		deltas := make(map[int]relation.Delta, len(streams))
		for i, ds := range streams {
			deltas[i] = ds.Next()
		}
		inc, err := sp.DetectDelta(ctx, deltas)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fresh, err := sp.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		vsp, err := compileOne(ctx, cloneCluster(t, cl), rule, PatDetectS, Options{})
		if err != nil {
			t.Fatal(err)
		}
		virgin, err := vsp.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertIncEquiv(t, fmt.Sprintf("round %d", round), inc, fresh, virgin)
		if sp.inc[0].session != session {
			t.Fatalf("round %d reseeded a size-stable stream", round)
		}
	}
	size := 0
	for i := 0; i < cl.N(); i++ {
		size += cl.Site(i).(*Site).Fragment().Len()
	}
	if size != data.Len() {
		t.Fatalf("the stream changed |D|: %d, want %d", size, data.Len())
	}
}

// TestSigmaMaintenanceMatchesFresh pins the serving-cache half: after
// ApplyDelta, a cached σ entry must report the same statistics as
// routing the mutated fragment from scratch.
func TestSigmaMaintenanceMatchesFresh(t *testing.T) {
	ctx := context.Background()
	frag := workload.Cust(workload.CustConfig{N: 400, Seed: 6, ErrRate: 0.05})
	s := NewSite(0, frag, relation.True())
	spec, err := SpecFromCFD(workload.CustPatternCFD(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SigmaStats(ctx, spec); err != nil { // prime the cache
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	stream := workload.CustDeltaStream(frag, workload.DeltaConfig{Seed: 2, Inserts: 4, Updates: 2, Deletes: 2})
	for step := 0; step < 10; step++ {
		if _, err := s.ApplyDelta(ctx, stream.Next(), ""); err != nil {
			t.Fatal(err)
		}
		got, err := s.SigmaStats(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := spec.AssignAll(s.Fragment())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: maintained lstat %v, fresh routing %v", step, got, want)
		}
		_ = rng
	}
}

// TestSiteOwnsItsRows pins the one-writer rule: once memory sites are
// built and an incremental session seeded, neither the relation a site
// was built from nor the copy Site.Fragment returns reaches the site.
// Appending a violating tuple to both and sorting both leaves a fresh
// Detect, the next DetectIncremental, the session and every generation
// as they were.
func TestSiteOwnsItsRows(t *testing.T) {
	ctx := context.Background()
	h, err := partition.Uniform(empD0(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := compileOne(ctx, cl, phi1, PatDetectS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := sp.DetectIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sp.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	session := sp.inc[0].session

	// A violating partner for Sam's (44, EH2 4HF) zip.
	partner := relation.Tuple{"f1", "y", "DMTS", "44", "131", "0000001", "NotPrincess", "EDI", "EH2 4HF", "95k"}
	for _, r := range []*relation.Relation{h.Fragments[1], cl.Site(1).(*Site).Fragment()} {
		r.MustAppend(partner)
		if err := r.SortBy("name"); err != nil {
			t.Fatal(err)
		}
	}

	fresh2, err := sp.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inc2, err := sp.DetectIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label     string
		got, want *Result
	}{{"fresh", fresh2, fresh}, {"incremental", inc2, inc}} {
		if got, want := c.got.PerCFD[0].String(), c.want.PerCFD[0].String(); got != want {
			t.Errorf("%s: a write to a caller's relation reached the site:\n%s\nwas\n%s", c.label, got, want)
		}
		if c.got.ShippedTuples != c.want.ShippedTuples || c.got.ModeledTime != c.want.ModeledTime {
			t.Errorf("%s: figures moved: %d/%v, were %d/%v", c.label,
				c.got.ShippedTuples, c.got.ModeledTime, c.want.ShippedTuples, c.want.ModeledTime)
		}
	}
	if sp.inc[0].session != session {
		t.Error("the session reseeded")
	}
	for i := 0; i < cl.N(); i++ {
		if g := cl.Site(i).(*Site).Generation(); g != 0 {
			t.Errorf("site %d at generation %d, want 0", i, g)
		}
	}
}

// TestIncrementalCancelDuringFoldDropsSession is the incremental half
// of the cancellation invariant: a context cancelled while a coordinator
// folds — the fold landed, so its session holds state — must leave zero
// buffered deposits and no retained fold session at any site, and the
// next call must reseed with results byte-identical to a fresh Detect.
func TestIncrementalCancelDuringFoldDropsSession(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 2_000, Seed: 5, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	landed := false
	bare := make([]*Site, h.N())
	sites := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		bare[i] = NewSite(i, frag, relation.True())
		sites[i] = &cancellingSite{Site: bare[i], once: &once, cancel: cancel, landed: &landed}
	}
	cl, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	rule := workload.CustPatternCFD(16)
	sp, err := compileOne(context.Background(), cl, rule, PatDetectS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The seeding round carries full blocks inside each fold; the first
	// fold to land pulls the plug.
	_, err = sp.DetectIncremental(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if !landed {
		t.Fatal("no fold landed before the cancel — the session assertion would be vacuous")
	}
	for i, s := range bare {
		if n := depositCount(s); n != 0 {
			t.Errorf("site %d still buffers %d deposit tasks after cancelled incremental run", i, n)
		}
		if n := s.FoldSessions(); n != 0 {
			t.Errorf("site %d retains %d fold sessions after cancelled incremental run", i, n)
		}
	}
	// Recovery: a live context reseeds and matches the one-shot path.
	inc, err := sp.DetectIncremental(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sp.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inc.PerCFD[0].String() != fresh.PerCFD[0].String() ||
		inc.ShippedTuples != fresh.ShippedTuples || inc.ModeledTime != fresh.ModeledTime {
		t.Fatal("post-cancel incremental round diverges from fresh Detect")
	}
	for i, s := range bare {
		if n := depositCount(s); n != 0 {
			t.Errorf("site %d holds %d leftover deposit tasks after recovery round", i, n)
		}
	}
}

// TestIncrementalRoundCallShape pins what a round after the seed asks
// of the sites: no Deposit — the delta blocks ride in the fold — and at
// most one SigmaStats, one ExtractDeltaBlocks and one FoldDetect per
// site per unit.
func TestIncrementalRoundCallShape(t *testing.T) {
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: 1_200, Seed: 3, ErrRate: 0.03})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := make([]map[string]int, h.N())
	sites := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		s := NewSite(i, frag, relation.True())
		calls[i] = map[string]int{}
		w := NewIntercept(func() SiteAPI { return s }, func(_ context.Context, method string, call func(SiteAPI) error) error {
			mu.Lock()
			calls[i][method]++
			mu.Unlock()
			return call(s)
		})
		sites[i] = &w
	}
	cl, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileSet(ctx, cl, []*cfd.CFD{workload.CustPatternCFD(24), workload.CustStreetCFD()}, PatDetectRT, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DetectIncremental(ctx); err != nil {
		t.Fatal(err)
	}
	streams := workload.SplitStreams(h.Fragments,
		workload.DeltaConfig{Seed: 21, Inserts: 6, Updates: 3, Deletes: 2, ErrRate: 0.1},
		func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
			return workload.CustDeltaStream(f, c)
		})
	for i, ds := range streams {
		if _, err := cl.Site(i).ApplyDelta(ctx, ds.Next(), ""); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	for i := range calls {
		calls[i] = map[string]int{}
	}
	mu.Unlock()
	res, err := p.DetectIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaShippedTuples == 0 {
		t.Fatal("the round shipped no delta tuple — the Deposit count would be vacuous")
	}
	for i, c := range calls {
		if c["Deposit"] != 0 {
			t.Errorf("site %d received %d Deposit calls", i, c["Deposit"])
		}
		for _, m := range []string{"SigmaStats", "ExtractDeltaBlocks", "FoldDetect"} {
			if c[m] > len(p.units) {
				t.Errorf("site %d received %d %s calls for %d units", i, c[m], m, len(p.units))
			}
		}
	}
}
