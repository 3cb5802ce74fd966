package distcfd

import (
	"context"
	"strings"
	"sync"
	"testing"

	"distcfd/internal/core"
	"distcfd/internal/faulty"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

func compileTestCluster(t *testing.T) (*Cluster, []*CFD) {
	t.Helper()
	data := workload.EMPData()
	rules, err := ParseRules(strings.NewReader(`
phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)
phi2: [CC, title] -> [salary]
phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)
`))
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionUniform(data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(part)
	if err != nil {
		t.Fatal(err)
	}
	return cl, rules
}

func samePatternSets(t *testing.T, label string, got, want []*Relation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pattern relations, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].SameTuples(want[i]) {
			t.Errorf("%s: cfd %d patterns differ\ngot %v\nwant %v", label, i, got[i], want[i])
		}
	}
}

// TestCompileDetectMatchesOneShot: the compiled session returns the
// same violations and accounting as the deprecated one-shot DetectSet,
// across repeated and concurrent Detect calls.
func TestCompileDetectMatchesOneShot(t *testing.T) {
	cl, rules := compileTestCluster(t)
	want, err := core.DetectOnce(context.Background(), cl, rules, PatDetectRT, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Compile(cl, rules)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k := 0; k < 3; k++ {
		res, err := det.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		samePatternSets(t, "sequential", res.PerCFD, want.PerCFD)
		if res.ShippedTuples != want.ShippedTuples {
			t.Errorf("run %d: shipped %d, one-shot %d", k, res.ShippedTuples, want.ShippedTuples)
		}
		if res.ModeledTime != want.ModeledTime {
			t.Errorf("run %d: modeled %v, one-shot %v", k, res.ModeledTime, want.ModeledTime)
		}
		if res.Shipment.TotalTuples != res.ShippedTuples {
			t.Errorf("run %d: shipment report total %d != %d", k, res.Shipment.TotalTuples, res.ShippedTuples)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := det.Detect(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range res.PerCFD {
				if !res.PerCFD[i].SameTuples(want.PerCFD[i]) {
					t.Errorf("concurrent: cfd %d differs", i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestDetectorDetectOne: single-rule serving matches the one-shot
// single-CFD path, and unknown names fail helpfully.
func TestDetectorDetectOne(t *testing.T) {
	cl, rules := compileTestCluster(t)
	det, err := Compile(cl, rules, WithAlgorithm(PatDetectS))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, rule := range rules {
		want, err := core.DetectOnce(context.Background(), cl, []*CFD{rule}, PatDetectS, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.DetectOne(ctx, rule.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PerCFD[0].SameTuples(want.PerCFD[0]) {
			t.Errorf("%s: DetectOne differs from one-shot Detect", rule.Name)
		}
		if got := res.Patterns(rule.Name); got == nil || !got.SameTuples(want.PerCFD[0]) {
			t.Errorf("%s: Result.Patterns lookup failed", rule.Name)
		}
	}
	if _, err := det.DetectOne(ctx, "no-such-rule"); err == nil ||
		!strings.Contains(err.Error(), "no compiled CFD") {
		t.Errorf("unknown rule: got %v", err)
	}
}

// TestDetectorOptions: every option combination yields the same
// violation sets (they tune strategy and placement, never answers).
func TestDetectorOptions(t *testing.T) {
	cl, rules := compileTestCluster(t)
	want, err := core.DetectOnce(context.Background(), cl, rules, PatDetectRT, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, opts := range [][]Option{
		{WithAlgorithm(CTRDetect)},
		{WithAlgorithm(PatDetectS), WithWorkers(1)},
		{WithClustering(false), WithWorkers(4)},
		{WithMineTheta(0.2)},
	} {
		det, err := Compile(cl, rules, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		samePatternSets(t, "options", res.PerCFD, want.PerCFD)
	}
}

// TestDetectorContext: a dead context fails fast and leaves the
// detector serviceable.
func TestDetectorContext(t *testing.T) {
	cl, rules := compileTestCluster(t)
	det, err := Compile(cl, rules)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.Detect(ctx); err == nil {
		t.Error("cancelled context did not fail Detect")
	}
	if _, err := det.Detect(context.Background()); err != nil {
		t.Errorf("detector unusable after cancelled call: %v", err)
	}
}

// TestDetectCentralHonorsOptions: the fixed DetectCentral routes
// through the compiled session and no longer discards options.
func TestDetectCentralHonorsOptions(t *testing.T) {
	d := workload.EMPData()
	rule, err := ParseCFD(`phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)`)
	if err != nil {
		t.Fatal(err)
	}
	pats, err := DetectCentral(d, rule)
	if err != nil {
		t.Fatal(err)
	}
	if pats.Len() != 2 {
		t.Errorf("central patterns = %d, want 2", pats.Len())
	}
	for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
		got, err := DetectCentral(d, rule, WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		if !got.SameTuples(pats) {
			t.Errorf("%v: central result differs", algo)
		}
	}
}

// TestDetectorIncrementalServing drives the facade's delta loop:
// Apply routes deltas, DetectIncremental matches Detect byte for byte
// on violations and accounting, and the delta channel undercuts the
// full-recompute shipment once the session is warm.
func TestDetectorIncrementalServing(t *testing.T) {
	cl, rules := compileTestCluster(t)
	det, err := Compile(cl, rules)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Seed round.
	if _, err := det.DetectIncremental(ctx); err != nil {
		t.Fatal(err)
	}
	gen, err := det.Apply(ctx, 0, Delta{
		Inserts: []Tuple{
			{"n1", "Ada", "MTS", "44", "131", "1112223", "Mayfield", "NYC", "EH4 8LE", "80k"},
			{"n2", "Lin", "MTS", "44", "131", "1112224", "Mayfield", "EDI", "EH4 8LE", "80k"},
		},
		Deletes: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Gen != 1 {
		t.Fatalf("first delta reported generation %d", gen.Gen)
	}
	inc, err := det.DetectIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Incremental {
		t.Fatal("incremental result not marked")
	}
	full, err := det.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	samePatternSets(t, "incremental vs detect", inc.PerCFD, full.PerCFD)
	if inc.ShippedTuples != full.ShippedTuples || inc.ModeledTime != full.ModeledTime {
		t.Fatalf("accounting diverged: inc (%d, %v) vs full (%d, %v)",
			inc.ShippedTuples, inc.ModeledTime, full.ShippedTuples, full.ModeledTime)
	}
	if inc.ShippedTuples > 0 && inc.DeltaShippedTuples >= inc.ShippedTuples {
		t.Fatalf("delta channel shipped %d, full equivalent %d — no incremental saving",
			inc.DeltaShippedTuples, inc.ShippedTuples)
	}
	if inc.Shipment.TotalDeltaTuples != inc.DeltaShippedTuples {
		t.Fatalf("shipment report delta total %d != result %d",
			inc.Shipment.TotalDeltaTuples, inc.DeltaShippedTuples)
	}
	// DetectDelta is Apply + DetectIncremental in one call.
	res, err := det.DetectDelta(ctx, map[int]Delta{
		1: {Inserts: []Tuple{{"n3", "Kim", "DMTS", "44", "131", "1112225", "Crichton", "NYC", "EH2 4HF", "95k"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	full2, err := det.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	samePatternSets(t, "detectdelta vs detect", res.PerCFD, full2.PerCFD)
}

// TestDetectorAdmissionDrain pins the facade's overload surface over
// sites wrapped in core.WithAdmission: Drain latches (HealthDetail
// reports it; FailDegrade answers partially without the drained site),
// and Resume restores byte-identical full results.
func TestDetectorAdmissionDrain(t *testing.T) {
	plain, rules := compileTestCluster(t)
	sites := make([]SiteAPI, plain.N())
	for i := range sites {
		sites[i] = core.WithAdmission(plain.Site(i), core.AdmissionPolicy{})
	}
	cl, err := core.NewCluster(plain.Schema(), sites)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Compile(cl, rules, WithFailurePolicy(FailDegrade))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := det.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want.Partial {
		t.Fatal("healthy run reported partial")
	}

	if err := det.Drain(ctx, 1); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	hd := det.HealthDetail()
	if !hd[1].Draining || hd[0].Draining || hd[2].Draining {
		t.Fatalf("drain state after Drain(1): %+v", hd)
	}
	res, err := det.Detect(ctx)
	if err != nil {
		t.Fatalf("degrade run: %v", err)
	}
	if !res.Partial || len(res.ExcludedSites) != 1 || res.ExcludedSites[0] != 1 {
		t.Fatalf("draining site not excluded: partial=%v excluded=%v", res.Partial, res.ExcludedSites)
	}
	if hd = det.HealthDetail(); hd[1].Breaker != BreakerClosed {
		t.Fatalf("breaker %v for a draining site; draining is not death", hd[1].Breaker)
	}

	det.Resume(1)
	if det.HealthDetail()[1].Draining {
		t.Fatal("Resume did not clear the drain state")
	}
	after, err := det.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Partial {
		t.Fatal("post-resume run still partial")
	}
	samePatternSets(t, "post-resume vs pre-drain", after.PerCFD, want.PerCFD)

	if err := det.Drain(ctx, 99); err == nil {
		t.Fatal("Drain must reject an out-of-range site")
	}
	cl2, rules2 := compileTestCluster(t)
	bare, err := Compile(cl2, rules2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Drain(ctx, 0); err == nil || !strings.Contains(err.Error(), "no admission controller") {
		t.Fatalf("a cluster of bare sites has no drain surface: %v", err)
	}
}

// TestDetectOneDegradePartial: DetectOne is a plan of one, so under
// FailDegrade it takes the set plan's "exclusion set grew ⇒ re-run
// every unit" loop. With one site dead from its first call (the crash
// plan of core's TestChaosDegradePartial) each rule's partial answer
// must equal a clean DetectOne over only the reachable fragments, name
// the dead site, report the reachable coverage, and leave no deposit
// behind — for a rule the set plan runs as a unit of its own and for
// members of a merged cluster alike.
func TestDetectOneDegradePartial(t *testing.T) {
	const down = 2
	data := workload.Cust(workload.CustConfig{N: 1_500, Seed: 4, ErrRate: 0.05})
	h, err := PartitionUniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare := make([]*core.Site, h.N())
	sites := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		bare[i] = core.NewSite(i, frag, relation.True())
		sites[i] = bare[i]
	}
	// CrashAt 1 with no rebuild: dead from the first call on.
	sites[down] = faulty.Wrap(bare[down], faulty.Plan{CrashAt: 1})
	cl, err := core.NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	rcl, err := NewCluster(&Horizontal{Schema: h.Schema, Fragments: h.Fragments[:down]})
	if err != nil {
		t.Fatal(err)
	}
	rules := append(workload.CustOverlappingCFDs(16, 8), workload.CustStreetCFD())
	opts := []Option{WithAlgorithm(PatDetectS), WithWorkers(1), WithFailurePolicy(FailDegrade)}
	det, err := Compile(cl, rules, opts...)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Compile(rcl, rules, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reachable := h.Fragments[0].Len() + h.Fragments[1].Len()
	wantCov := float64(reachable) / float64(data.Len())
	ctx := context.Background()
	for _, rule := range rules {
		res, err := det.DetectOne(ctx, rule.Name)
		if err != nil {
			t.Fatalf("%s: degraded DetectOne failed outright: %v", rule.Name, err)
		}
		want, err := clean.DetectOne(ctx, rule.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PerCFD[0].SameTuples(want.PerCFD[0]) {
			t.Errorf("%s: degraded patterns differ from the reachable-only run\n got  %v\n want %v",
				rule.Name, res.PerCFD[0], want.PerCFD[0])
		}
		if !res.Partial || len(res.ExcludedSites) != 1 || res.ExcludedSites[0] != down {
			t.Errorf("%s: Partial=%v ExcludedSites=%v, want true [%d]", rule.Name, res.Partial, res.ExcludedSites, down)
		}
		if res.Coverage < wantCov-1e-9 || res.Coverage > wantCov+1e-9 {
			t.Errorf("%s: Coverage = %v, want %v", rule.Name, res.Coverage, wantCov)
		}
		if want.Partial || want.Coverage != 1 {
			t.Errorf("%s: clean run reports Partial=%v Coverage=%v", rule.Name, want.Partial, want.Coverage)
		}
		for i, s := range bare {
			if n := s.PendingDeposits(); n != 0 {
				t.Errorf("%s: site %d still buffers %d deposit tasks", rule.Name, i, n)
			}
		}
	}
}
