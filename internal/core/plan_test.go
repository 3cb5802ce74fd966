package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
)

// TestPlanDetectManyIdenticalToOneShot is the plan-reuse property: on
// random relations, CFD sets, and partitionings, a plan compiled once
// and detected many times — sequentially and concurrently — returns
// violation sets byte-identical (tuples and order) to fresh serial
// compile-and-run-once calls, with equal shipment totals and modeled
// time on every call. Run under -race this also pins that a Plan and
// the sites' serving caches tolerate concurrent Detect traffic.
func TestPlanDetectManyIdenticalToOneShot(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		d := randomRelation(rng, 80)
		var cfds []*cfd.CFD
		for i := 0; i < 2+rng.Intn(4); i++ {
			c := randomTestCFD(rng)
			c.Name = c.Name + itoa(i)
			cfds = append(cfds, c)
		}
		h, err := partition.Uniform(d, 2+rng.Intn(3), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, clustered := range []bool{false, true} {
			oneShot := func() *Result {
				t.Helper()
				res, err := DetectOnce(ctx, cl, cfds, PatDetectRT, Options{Workers: 1}, clustered)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := oneShot()

			p, err := CompileSet(ctx, cl, cfds, PatDetectRT, Options{Workers: 3}, clustered)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, got *Result) {
				t.Helper()
				for ci := range cfds {
					if !identicalRelations(got.PerCFD[ci], want.PerCFD[ci]) {
						t.Fatalf("trial %d clustered=%v %s cfd %d: plan result differs from one-shot\n plan %v\n shot %v",
							trial, clustered, label, ci, got.PerCFD[ci], want.PerCFD[ci])
					}
				}
				if got.ShippedTuples != want.ShippedTuples {
					t.Errorf("trial %d clustered=%v %s: shipment %d != one-shot %d",
						trial, clustered, label, got.ShippedTuples, want.ShippedTuples)
				}
				if got.ModeledTime != want.ModeledTime {
					t.Errorf("trial %d clustered=%v %s: modeled %v != one-shot %v",
						trial, clustered, label, got.ModeledTime, want.ModeledTime)
				}
				if len(got.Clusters) != len(want.Clusters) {
					t.Errorf("trial %d clustered=%v %s: cluster structure differs", trial, clustered, label)
				}
			}

			// Sequential reuse: the same plan, three runs in a row.
			for k := 0; k < 3; k++ {
				got, err := p.Detect(ctx)
				if err != nil {
					t.Fatal(err)
				}
				check("seq", got)
			}

			// Concurrent reuse: one plan serving parallel callers, while
			// one-shot runs hit the same sites' caches from the side.
			var wg sync.WaitGroup
			results := make([]*Result, 4)
			errs := make([]error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g], errs[g] = p.Detect(ctx)
				}(g)
			}
			interleaved := oneShot()
			wg.Wait()
			for g := 0; g < 4; g++ {
				if errs[g] != nil {
					t.Fatal(errs[g])
				}
				check("conc", results[g])
			}
			check("interleaved-one-shot", interleaved)
		}
	}
}

// TestPlanSingle pins the DetectOne path: a CFD the set plan already
// runs as a unit of its own is served by that very compiled unit (no
// second mining pass), a member of a merged cluster gets a unit
// compiled for it, and either way the one-CFD plan reports what
// compiling the CFD alone reports.
func TestPlanSingle(t *testing.T) {
	ctx := context.Background()
	cl := fig1bCluster(t)
	cfds := []*cfd.CFD{phi1, phi2, phi3, cfd.MustParse(`phi4: [CC] -> [city] : (01 || _)`)}
	for _, clustered := range []bool{false, true} {
		p, err := CompileSet(ctx, cl, cfds, PatDetectS, Options{MineTheta: 0.1}, clustered)
		if err != nil {
			t.Fatal(err)
		}
		if clustered && len(p.clusters) != 1 {
			t.Fatalf("fixture did not merge into one cluster: %v", p.clusters)
		}
		for i, c := range cfds {
			sp, err := p.Single(ctx, i)
			if err != nil {
				t.Fatal(err)
			}
			if shared := sp.units[0] == p.units[min(i, len(p.units)-1)]; shared == clustered {
				t.Errorf("clustered=%v cfd %d: shares the set plan's unit = %v", clustered, i, shared)
			}
			one, err := flattenOne(sp.Detect(ctx))
			if err != nil {
				t.Fatal(err)
			}
			want, err := detectOne(ctx, cl, c, PatDetectS, Options{MineTheta: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if !identicalRelations(one.Patterns, want.Patterns) || one.ShippedTuples != want.ShippedTuples ||
				one.ModeledTime != want.ModeledTime || one.MinedPatterns != want.MinedPatterns {
				t.Errorf("clustered=%v cfd %d: one-CFD plan differs from compiling the CFD alone", clustered, i)
			}
		}
	}
}

// TestPlanMiningCompiledOnce pins that a mined plan reproduces the
// one-shot mined run exactly — including the control traffic replay —
// across repeated detects.
func TestPlanMiningCompiledOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := randomRelation(rng, 200)
	h, err := partition.Uniform(d, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	fd := cfd.MustNew("mfd", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
		{LHS: []string{cfd.Wildcard, cfd.Wildcard}, RHS: []string{cfd.Wildcard}},
	})
	opt := Options{MineTheta: 0.1}
	want, err := detectOne(context.Background(), cl, fd, PatDetectS, opt)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := compileOne(context.Background(), cl, fd, PatDetectS, opt)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		got, err := flattenOne(sp.Detect(context.Background()))
		if err != nil {
			t.Fatal(err)
		}
		if !identicalRelations(got.Patterns, want.Patterns) {
			t.Fatalf("run %d: mined plan patterns differ from one-shot", k)
		}
		if got.MinedPatterns != want.MinedPatterns {
			t.Errorf("run %d: mined %d patterns, one-shot mined %d", k, got.MinedPatterns, want.MinedPatterns)
		}
		if got.ShippedTuples != want.ShippedTuples || got.ModeledTime != want.ModeledTime {
			t.Errorf("run %d: accounting differs: shipped %d/%d modeled %v/%v",
				k, got.ShippedTuples, want.ShippedTuples, got.ModeledTime, want.ModeledTime)
		}
		gs, ws := got.Shipment, want.Shipment
		if gs.ControlBytes != ws.ControlBytes {
			t.Errorf("run %d: control traffic %d != one-shot %d (mining exchange not replayed?)",
				k, gs.ControlBytes, ws.ControlBytes)
		}
	}
}

// TestCompileRefusesNaNMineTheta: a NaN θ is neither "mining off" nor
// a support floor, so compiling with one fails instead of silently
// planning without mining.
func TestCompileRefusesNaNMineTheta(t *testing.T) {
	_, err := CompileSet(context.Background(), fig1bCluster(t), []*cfd.CFD{phi1}, PatDetectS, Options{MineTheta: math.NaN()}, false)
	if err == nil {
		t.Fatal("MineTheta NaN compiled")
	}
}

// TestRunSkipsConstantsForVariableOnlyRule pins what compileUnit
// decides: the Proposition 5 local step is issued — once per site —
// only for a rule that has a constant unit; a rule whose units are all
// variable could only get empty relations back, so no site is asked.
func TestRunSkipsConstantsForVariableOnlyRule(t *testing.T) {
	mixed := cfd.MustParse(`mixed: [CC, AC] -> [city] : (44, 131 || EDI), (_, _ || _)`)
	for _, tc := range []struct {
		name      string
		rules     []*cfd.CFD
		clustered bool
		perSite   int
	}{
		{"variable-only", []*cfd.CFD{phi1, phi2}, false, 0},
		{"variable-only-clustered", []*cfd.CFD{phi1, phi2}, true, 0},
		{"constant-only", []*cfd.CFD{phi3}, false, 1},
		{"mixed-tableau", []*cfd.CFD{mixed}, false, 1},
		{"one-of-three", []*cfd.CFD{phi1, phi2, phi3}, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare := uniformCluster(t, 3, 5)
			var mu sync.Mutex
			calls := make([]map[string]int, bare.N())
			sites := make([]SiteAPI, bare.N())
			for i := range sites {
				s := bare.Site(i)
				calls[i] = map[string]int{}
				w := NewIntercept(func() SiteAPI { return s }, func(_ context.Context, method string, call func(SiteAPI) error) error {
					mu.Lock()
					calls[i][method]++
					mu.Unlock()
					return call(s)
				})
				sites[i] = &w
			}
			cl, err := NewCluster(bare.Schema(), sites)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			res, err := DetectOnce(ctx, cl, tc.rules, PatDetectS, Options{}, tc.clustered)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range calls {
				if got := c["DetectConstantsLocal"]; got != tc.perSite {
					t.Errorf("site %d: %d DetectConstantsLocal calls, want %d (all calls: %v)", i, got, tc.perSite, c)
				}
			}
			// Skipping the step changes nothing a caller reads.
			want, err := DetectOnce(ctx, uniformCluster(t, 1, 5), tc.rules, PatDetectS, Options{}, tc.clustered)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range tc.rules {
				if !res.PerCFD[ci].SameTuples(want.PerCFD[ci]) {
					t.Errorf("%s: %v, a single-site run finds %v", tc.rules[ci].Name, res.PerCFD[ci], want.PerCFD[ci])
				}
			}
		})
	}
}
