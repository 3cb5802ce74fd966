package distcfd

// One benchmark per table/figure of the paper's evaluation (Fig. 3(a)
// through 3(i)), plus ablation benches for the design choices called
// out in DESIGN.md. Figure benches execute the same drivers as
// cmd/cfdexp and report the figure's headline quantity as a custom
// metric; shapes (who wins, by how much, where crossovers fall) are
// asserted separately in internal/exp's tests.
//
// The bench scale defaults to 1/20 of the paper's dataset sizes so the
// whole suite stays in tens of seconds; set DISTCFD_SCALE=1.0 to run
// the full 800K/1.6M/2.7M-tuple experiments.

import (
	"context"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/engine"
	"distcfd/internal/exp"
	"distcfd/internal/mining"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/remote"
	"distcfd/internal/workload"
)

func benchConfig() exp.Config {
	scale := 0.05
	if s := os.Getenv("DISTCFD_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	return exp.Config{Scale: scale, Seed: 42, ErrRate: 0.01}
}

// benchFigure runs one experiment driver per iteration and reports the
// last row of the named columns as metrics.
func benchFigure(b *testing.B, run func(exp.Config) (*exp.Series, error)) {
	cfg := benchConfig()
	b.ReportAllocs()
	var last *exp.Series
	for i := 0; i < b.N; i++ {
		s, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	if last != nil {
		for j, col := range last.Columns {
			b.ReportMetric(last.Rows[len(last.Rows)-1][j], col+"@max-x")
		}
	}
}

func BenchmarkFig3aExp1CustSites(b *testing.B)    { benchFigure(b, exp.Exp1Cust) }
func BenchmarkFig3bExp1XrefSites(b *testing.B)    { benchFigure(b, exp.Exp1Xref) }
func BenchmarkFig3cExp2CustScale(b *testing.B)    { benchFigure(b, exp.Exp2) }
func BenchmarkFig3dExp3TableauSize(b *testing.B)  { benchFigure(b, exp.Exp3) }
func BenchmarkFig3eExp4Mining(b *testing.B)       { benchFigure(b, exp.Exp4) }
func BenchmarkFig3fExp5ShipmentXref(b *testing.B) { benchFigure(b, exp.Exp5ShipXref) }
func BenchmarkFig3gExp5TimeXref(b *testing.B)     { benchFigure(b, exp.Exp5TimeXref) }
func BenchmarkFig3hExp5TimeCust(b *testing.B)     { benchFigure(b, exp.Exp5TimeCust) }
func BenchmarkFig3iExp6CustScale(b *testing.B)    { benchFigure(b, exp.Exp6) }

// kern is the detection kernel the root package's benchmarks and
// equivalence tests call the check primitive through.
var kern engine.Kernel

// BenchmarkCentralDetect measures the local `check` primitive — the
// hash-group-by detector standing in for the SQL technique of [2] —
// in tuples per second.
func BenchmarkCentralDetect(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 100_000, Seed: 1, ErrRate: 0.01})
	rule := workload.CustPatternCFD(255)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kern.DetectSet(data, []*cfd.CFD{rule}, engine.Opts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(data.Len())*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkAblationSigmaIndex compares σ pattern routing through the
// per-mask hash index against the naive first-match scan, on the
// 255-pattern CUST tableau (DESIGN.md ablation 3/4 substrate).
func BenchmarkAblationSigmaIndex(b *testing.B) {
	rule := workload.CustPatternCFD(255)
	spec, err := core.SpecFromCFD(rule)
	if err != nil {
		b.Fatal(err)
	}
	data := workload.Cust(workload.CustConfig{N: 20_000, Seed: 1, ErrRate: 0.01})
	xi, err := data.Schema().Indices(spec.X)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]string, data.Len())
	for i, t := range data.Tuples() {
		rows[i] = t.Project(xi)
	}
	b.Run("hash-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				_ = spec.Assign(r)
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				for l, p := range spec.Patterns {
					if cfd.MatchAll(r, p) {
						_ = l
						break
					}
				}
			}
		}
	})
}

// BenchmarkAblationEncoding is DESIGN.md ablation 8, in two tiers.
// The micro tier compares hash-group-by keys built from raw strings
// against dictionary-interned IDs on a relation encoded from scratch
// every iteration. The detect tier compares the full check(D, Σ)
// primitive end to end: engine.DetectRows (the row-oriented string-key
// reference) against engine.Kernel.DetectSet (the columnar dictionary-encoded
// default; its per-column vectors are cached on the relation, as in
// the real pipeline).
func BenchmarkAblationEncoding(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 50_000, Seed: 1, ErrRate: 0.01})
	attrs := []string{"CC", "AC", "zip"}
	idx, err := data.Schema().Indices(attrs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("string-keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			groups := make(map[string][]int, 1024)
			for ti, t := range data.Tuples() {
				k := t.Key(idx)
				groups[k] = append(groups[k], ti)
			}
		}
	})
	b.Run("dict-encoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dict := relation.NewDict()
			groups := make(map[[3]uint32][]int, 1024)
			for ti, t := range data.Tuples() {
				var key [3]uint32
				for j, c := range idx {
					key[j] = dict.ID(t[c])
				}
				groups[key] = append(groups[key], ti)
			}
		}
	})
	rules := []*cfd.CFD{
		workload.CustPatternCFD(64),
		workload.CustStreetCFD(),
		cfd.MustParse(`a1: [street, city] -> [zip]`),
	}
	b.Run("detect-row-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.DetectSetRows(data, rules); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detect-encoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kern.DetectSet(data, rules, engine.Opts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMiningShipment quantifies the Section IV-B mining
// optimization: tuples shipped with and without it on the Exp-4
// workload (reported as metrics; runtime is the preprocessing cost).
func BenchmarkAblationMiningShipment(b *testing.B) {
	data := workload.XRefHuman(50_000, 3)
	h, err := partition.ByAttribute(data, "source")
	if err != nil {
		b.Fatal(err)
	}
	h.Predicates = nil
	cl, err := core.FromHorizontal(h)
	if err != nil {
		b.Fatal(err)
	}
	rule := workload.XRefMiningFD()
	var plain, mined int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.DetectOnce(context.Background(), cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{}, false)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.DetectOnce(context.Background(), cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{MineTheta: 0.1}, false)
		if err != nil {
			b.Fatal(err)
		}
		plain, mined = p.ShippedTuples, m.ShippedTuples
	}
	b.ReportMetric(float64(plain), "shipped-plain")
	b.ReportMetric(float64(mined), "shipped-mined")
}

// BenchmarkAblationAdmission (ablation 17) prices the admission
// controller on both sides of its bargain. "serial" is the zero-fault
// overhead question: one driver against idle controllers, so every
// site call pays the semaphore handshake and nothing ever queues —
// the delta between admission=false and admission=true is the pure
// bookkeeping cost. "oversub2x" is the protection question: 16
// concurrent compiled Detect sessions against controllers that admit
// 8 — 2× oversubscribed — with FailRetry honoring the retry-after
// hints, versus the same storm running unthrottled; sessions/sec is
// the headline metric.
func BenchmarkAblationAdmission(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 20_000, Seed: 1, ErrRate: 0.01})
	h, err := partition.Uniform(data, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	rules := multiCFDBenchRules()
	build := func(b *testing.B, admit bool) *Detector {
		b.Helper()
		cl, err := core.FromHorizontal(h)
		if err != nil {
			b.Fatal(err)
		}
		opts := []Option{WithAlgorithm(PatDetectRT), WithFailurePolicy(FailRetry)}
		if admit {
			// Default concurrency cap, but queue room for the whole
			// storm: the bench measures throughput under backpressure,
			// not rejection rates.
			opts = append(opts, WithAdmissionPolicy(AdmissionPolicy{
				MaxConcurrent: 8, MaxQueue: 32, MaxWait: time.Second,
			}))
		}
		det, err := Compile(cl, rules, opts...)
		if err != nil {
			b.Fatal(err)
		}
		return det
	}
	ctx := context.Background()
	for _, admit := range []bool{false, true} {
		b.Run(fmt.Sprintf("serial/admission=%v", admit), func(b *testing.B) {
			det := build(b, admit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	const sessions = 16 // 2× the per-site MaxConcurrent of 8
	for _, admit := range []bool{false, true} {
		b.Run(fmt.Sprintf("oversub2x/admission=%v", admit), func(b *testing.B) {
			det := build(b, admit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, sessions)
				for s := 0; s < sessions; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						_, errs[s] = det.Detect(ctx)
					}(s)
				}
				wg.Wait()
				for s, err := range errs {
					if err != nil {
						b.Fatalf("session %d: %v", s, err)
					}
				}
			}
			b.ReportMetric(float64(sessions*b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
}

// multiCFDBenchRules is the disjoint-LHS CFD set both multi-CFD
// benchmarks (in-process and remote) measure: no LHS containment, so
// every rule is its own cluster.
func multiCFDBenchRules() []*cfd.CFD {
	return []*cfd.CFD{
		workload.CustPatternCFD(128),
		cfd.MustParse(`i1: [CC, title] -> [price]`),
		cfd.MustParse(`i2: [name] -> [phn]`),
		cfd.MustParse(`i3: [AC, phn] -> [street]`),
		cfd.MustParse(`i4: [street, city] -> [zip]`),
		cfd.MustParse(`i5: [qty, price] -> [title]`),
	}
}

// BenchmarkMultiCFDSeqVsPar compares the three multi-CFD paths on a
// set of disjoint-LHS CFDs (no containment, so every CFD is its own
// cluster): the sequential strategy processes them one by one, the clustered strategy finds
// only singleton clusters and degenerates to the same schedule, and
// the parallel run overlaps the independent clusters across its worker pool.
// All three produce identical violation sets; the bench isolates the
// wall-clock effect of the concurrency.
func BenchmarkMultiCFDSeqVsPar(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 40_000, Seed: 1, ErrRate: 0.01})
	h, err := partition.Uniform(data, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.FromHorizontal(h)
	if err != nil {
		b.Fatal(err)
	}
	rules := multiCFDBenchRules()
	b.Run("SeqDetect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectRT, core.Options{Workers: 1}, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ClustDetect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectRT, core.Options{Workers: 1}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParDetect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Through the facade, as applications call it.
			if _, err := core.DetectOnce(context.Background(), cl, rules, PatDetectRT, core.Options{}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParDetect-8workers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, rules, PatDetectRT, core.Options{Workers: 8}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiCFDSeqVsParRemote is the same comparison against sites
// served over loopback TCP, where per-phase RPC round-trips dominate:
// the parallel run overlaps the independent clusters' network waits, so it
// wins even when cores are scarce (on multicore it additionally
// overlaps the coordinator checks, like the in-process bench).
func BenchmarkMultiCFDSeqVsParRemote(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 10_000, Seed: 1, ErrRate: 0.01})
	h, err := partition.Uniform(data, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, h.N())
	for i, frag := range h.Fragments {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		site := core.NewSite(i, frag, relation.True())
		go func() { _ = remote.ServeAPIContext(context.Background(), lis, site, h.Schema) }()
		defer lis.Close()
		addrs[i] = lis.Addr().String()
	}
	sites, schema, err := remote.Dial(addrs)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.NewCluster(schema, sites)
	if err != nil {
		b.Fatal(err)
	}
	rules := multiCFDBenchRules()
	b.Run("SeqDetect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectRT, core.Options{Workers: 1}, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParDetect-6workers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, rules, PatDetectRT, core.Options{Workers: 6}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetectorServe measures the plan-once/detect-many serving
// path against equivalent one-shot calls: "oneshot" pays Σ validation,
// clustering, spec construction (and, in the mining pair, per-call
// frequent-pattern mining) on every iteration, while "compiled" runs a
// Detector compiled once before the timer. Violation sets, shipment
// totals, and modeled times are asserted identical up front, so the
// delta is pure serving overhead.
func BenchmarkDetectorServe(b *testing.B) {
	ctx := context.Background()
	// Serving-sized fragments: the always-on scenario is frequent
	// checks over live data, where per-call Σ-side overhead is a
	// visible fraction of the run (at bulk sizes the coordinator
	// group-bys dominate both paths identically).
	data := workload.Cust(workload.CustConfig{N: 5_000, Seed: 1, ErrRate: 0.01})
	h, err := partition.Uniform(data, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.FromHorizontal(h)
	if err != nil {
		b.Fatal(err)
	}
	rules := multiCFDBenchRules()

	det, err := Compile(cl, rules, WithAlgorithm(PatDetectRT))
	if err != nil {
		b.Fatal(err)
	}
	wantSet, err := core.DetectOnce(context.Background(), cl, rules, PatDetectRT, core.Options{Workers: 1}, true)
	if err != nil {
		b.Fatal(err)
	}
	gotSet, err := det.Detect(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for i := range rules {
		if !gotSet.PerCFD[i].SameTuples(wantSet.PerCFD[i]) {
			b.Fatalf("cfd %d: compiled violations differ from one-shot", i)
		}
	}
	if gotSet.ShippedTuples != wantSet.ShippedTuples || gotSet.ModeledTime != wantSet.ModeledTime {
		b.Fatalf("compiled accounting differs: %d/%v vs %d/%v",
			gotSet.ShippedTuples, gotSet.ModeledTime, wantSet.ShippedTuples, wantSet.ModeledTime)
	}

	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, rules, PatDetectRT, core.Options{Workers: 1}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The mining pair: compilation absorbs the Section IV-B mining
	// preprocessing, which the one-shot path repeats per call.
	xref := workload.XRefHuman(30_000, 3)
	hx, err := partition.ByAttribute(xref, "source")
	if err != nil {
		b.Fatal(err)
	}
	hx.Predicates = nil
	clx, err := core.FromHorizontal(hx)
	if err != nil {
		b.Fatal(err)
	}
	fd := []*cfd.CFD{workload.XRefMiningFD()}
	detMine, err := Compile(clx, fd, WithAlgorithm(PatDetectS), WithMineTheta(0.1))
	if err != nil {
		b.Fatal(err)
	}
	wantMine, err := core.DetectOnce(context.Background(), clx, fd, PatDetectS, core.Options{Workers: 1, MineTheta: 0.1}, true)
	if err != nil {
		b.Fatal(err)
	}
	gotMine, err := detMine.Detect(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if !gotMine.PerCFD[0].SameTuples(wantMine.PerCFD[0]) ||
		gotMine.ShippedTuples != wantMine.ShippedTuples {
		b.Fatal("mined compiled run differs from one-shot")
	}
	b.Run("oneshot-mined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), clx, fd, PatDetectS, core.Options{Workers: 1, MineTheta: 0.1}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-mined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := detMine.Detect(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClosedPatternMining measures the miner itself.
func BenchmarkClosedPatternMining(b *testing.B) {
	data := workload.XRefHuman(100_000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.ClosedPatterns(data, []string{"external_db", "info_type"}, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCOverhead contrasts a full PatDetectS run on in-process
// sites against identical sites served over loopback TCP.
func BenchmarkRPCOverhead(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 10_000, Seed: 1, ErrRate: 0.01})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	rule := workload.CustPatternCFD(64)
	b.Run("in-process", func(b *testing.B) {
		cl, err := core.FromHorizontal(h)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{}, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loopback-tcp", func(b *testing.B) {
		addrs := make([]string, h.N())
		for i, frag := range h.Fragments {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			site := core.NewSite(i, frag, relation.True())
			go func() { _ = remote.ServeAPIContext(context.Background(), lis, site, h.Schema) }()
			defer lis.Close()
			addrs[i] = lis.Addr().String()
		}
		sites, schema, err := remote.Dial(addrs)
		if err != nil {
			b.Fatal(err)
		}
		cl, err := core.NewCluster(schema, sites)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectOnce(context.Background(), cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{}, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerticalRefinement measures exact vs greedy refinement on
// the Example 7 instance.
func BenchmarkVerticalRefinement(b *testing.B) {
	cfds := workload.EMPCFDs()
	frag := workload.EMPVerticalAttrSets()
	withKey := make([][]string, len(frag))
	for i, f := range frag {
		withKey[i] = append([]string{"id"}, f...)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MinimumRefinement(cfds, withKey, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = GreedyRefinement(cfds, withKey)
		}
	})
}

// BenchmarkParseRules measures the rule-file parser.
func BenchmarkParseRules(b *testing.B) {
	text := ""
	for i := 0; i < 50; i++ {
		text += fmt.Sprintf("r%d: [CC, AC, zip] -> [city] : (44, %02d, _ || _), (31, %02d, _ || _)\n", i, i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCFD(fmt.Sprintf("q: [a,b] -> [c] : (%d, _ || x)", i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalDetect is DESIGN.md ablation 11: delta-aware
// serving (DetectIncremental folding |ΔD| into retained state) against
// the full recompute it replaces, across delta fractions. Each
// iteration applies one |ΔD| = frac·|D| round across the sites and
// re-detects; the reported metrics separate what actually crossed the
// wire (delta-tuples/op, delta-bytes/op) from the modeled
// full-recompute equivalent (equiv-tuples/op), so the |ΔD| scaling is
// visible at any dataset scale. BENCH_incremental.json records the
// trajectory.
func BenchmarkIncrementalDetect(b *testing.B) {
	cfg := benchConfig()
	n := int(40_000 * cfg.Scale * 20) // 40K at the default 1/20 scale
	data := workload.Cust(workload.CustConfig{N: n, Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	rules := []*cfd.CFD{workload.CustPatternCFD(128), workload.CustStreetCFD()}

	setup := func(b *testing.B) (*core.Plan, *core.Cluster, []*workload.DeltaStream) {
		h, err := partition.Uniform(data.Clone(), 4, 7)
		if err != nil {
			b.Fatal(err)
		}
		cl, err := core.FromHorizontal(h)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.CompileSet(context.Background(), cl, rules, core.PatDetectRT, core.Options{}, true)
		if err != nil {
			b.Fatal(err)
		}
		streams := workload.SplitStreams(h.Fragments,
			workload.DeltaConfig{Seed: 3, ErrRate: 0.05},
			func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
				return workload.CustDeltaStream(f, c)
			})
		return p, cl, streams
	}
	roundDeltas := func(streams []*workload.DeltaStream, perSite int) map[int]relation.Delta {
		for _, ds := range streams {
			ds.SetMix(perSite/2, perSite/4, perSite/4)
		}
		out := make(map[int]relation.Delta, len(streams))
		for i, ds := range streams {
			out[i] = ds.Next()
		}
		return out
	}

	for _, frac := range []float64{0.001, 0.01, 0.1} {
		b.Run(fmt.Sprintf("incremental/delta=%g%%", frac*100), func(b *testing.B) {
			p, _, streams := setup(b)
			if _, err := p.DetectIncremental(context.Background()); err != nil {
				b.Fatal(err) // seed round outside the timer
			}
			perSite := int(float64(n) * frac / 4)
			if perSite < 4 {
				perSite = 4
			}
			b.ReportAllocs()
			b.ResetTimer()
			var deltaTuples, deltaBytes, equivTuples int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				deltas := roundDeltas(streams, perSite)
				b.StartTimer()
				res, err := p.DetectDelta(context.Background(), deltas)
				if err != nil {
					b.Fatal(err)
				}
				deltaTuples += res.DeltaShippedTuples
				deltaBytes += res.DeltaShippedBytes
				equivTuples += res.ShippedTuples
			}
			b.ReportMetric(float64(deltaTuples)/float64(b.N), "delta-tuples/op")
			b.ReportMetric(float64(deltaBytes)/float64(b.N), "delta-bytes/op")
			b.ReportMetric(float64(equivTuples)/float64(b.N), "equiv-tuples/op")
		})
	}
	b.Run("full-recompute/delta=1%", func(b *testing.B) {
		p, cl, streams := setup(b)
		if _, err := p.Detect(context.Background()); err != nil {
			b.Fatal(err)
		}
		perSite := n / 100 / 4
		b.ReportAllocs()
		b.ResetTimer()
		var shipped int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			deltas := roundDeltas(streams, perSite)
			for site, d := range deltas {
				if _, err := cl.ApplyDelta(context.Background(), site, d); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			res, err := p.Detect(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			shipped += res.ShippedTuples
		}
		b.ReportMetric(float64(shipped)/float64(b.N), "shipped-tuples/op")
	})
}

// BenchmarkKernel isolates the vectorized check kernel (DESIGN.md
// ablation 12). The kernel tier runs engine.Kernel.DetectSet on one
// 100K-tuple relation — the shape of a single merged cluster's
// coordinator check, where cluster-level parallelism has nothing to
// overlap — serially and with intra-unit row sharding at several
// worker budgets. The cluster tier runs the same comparison end to
// end through a compiled Detector over a one-cluster CFD set, where
// the whole Options.Workers budget drops into the kernel. make
// bench-smoke additionally runs this benchmark at GOMAXPROCS=1 and
// GOMAXPROCS=4 so the intra-unit scaling (or, on a single hardware
// thread, the sharding overhead) is visible either way.
func BenchmarkKernel(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 100_000, Seed: 1, ErrRate: 0.01})
	rules := []*cfd.CFD{
		cfd.MustParse(`kb1: [street, city] -> [zip]`),
		cfd.MustParse(`kb2: [CC, AC] -> [city]`),
	}
	var k engine.Kernel
	for _, w := range []int{1, 2, 4, 8} {
		name := "serial"
		if w > 1 {
			name = fmt.Sprintf("par-%d", w)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.DetectSet(data, rules, engine.Opts{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// One merged cluster end to end: b1/b2/b3's LHSs are related by
	// containment, so clustering produces a single unit and the worker
	// budget becomes pure intra-unit sharding at the coordinators.
	clusterRules := []*cfd.CFD{
		cfd.MustParse(`m1: [CC] -> [AC]`),
		cfd.MustParse(`m2: [CC, AC] -> [city]`),
		cfd.MustParse(`m3: [CC, AC, phn] -> [street]`),
	}
	h, err := partition.Uniform(workload.Cust(workload.CustConfig{N: 40_000, Seed: 1, ErrRate: 0.01}), 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.FromHorizontal(h)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		det, err := Compile(cl, clusterRules, WithAlgorithm(PatDetectRT), WithWorkers(w))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("merged-cluster/workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
