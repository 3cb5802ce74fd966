package exp

import (
	"context"
	"fmt"
	"io"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// siteSweep is the paper's 2–8 site range.
var siteSweep = []int{2, 3, 4, 5, 6, 7, 8}

func clusterFor(d *relation.Relation, sites int, seed int64) (*core.Cluster, error) {
	h, err := partition.Uniform(d, sites, seed)
	if err != nil {
		return nil, err
	}
	return core.FromHorizontal(h)
}

// detectOnce compiles and runs one detection for a figure's data point.
func detectOnce(cl *core.Cluster, cfds []*cfd.CFD, algo core.Algorithm, opt core.Options, clustered bool) (*core.Result, error) {
	//distcfd:ctxflow-ok — CLI experiment harness; no caller context exists
	return core.DetectOnce(context.Background(), cl, cfds, algo, opt, clustered)
}

// Exp1Cust reproduces Fig 3(a): response time vs #sites on cust8 for
// the three single-CFD algorithms (CFD: 4 attributes, 255 patterns).
func Exp1Cust(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.Cust(workload.CustConfig{N: cfg.size(SizeCust8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	rule := workload.CustPatternCFD(255)
	return sweepSitesSingle(cfg, d, rule,
		"Fig 3(a)", "Exp-1: scalability with |S| (cust8), CFD with 255 patterns")
}

// Exp1Xref reproduces Fig 3(b): the same sweep on xref8 (CFD: 5
// attributes, 11 patterns).
func Exp1Xref(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.XRef(workload.XRefConfig{N: cfg.size(SizeXref8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	return sweepSitesSingle(cfg, d, workload.XRefCFD(),
		"Fig 3(b)", "Exp-1: scalability with |S| (xref8), CFD with 11 patterns")
}

func sweepSitesSingle(cfg Config, d *relation.Relation, rule *cfd.CFD, figure, title string) (*Series, error) {
	s := &Series{
		Figure:  figure,
		Title:   title,
		XLabel:  "sites",
		Unit:    "modeled response time cost(D,Σ,M)",
		Columns: []string{"CTRDetect", "PatDetectS", "PatDetectRT"},
	}
	for _, n := range siteSweep {
		cl, err := clusterFor(d, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 3)
		for _, algo := range []core.Algorithm{core.CTRDetect, core.PatDetectS, core.PatDetectRT} {
			res, err := detectOnce(cl, []*cfd.CFD{rule}, algo, core.Options{Cost: cfg.Cost}, false)
			if err != nil {
				return nil, err
			}
			row = append(row, res.ModeledTime)
		}
		s.XS = append(s.XS, float64(n))
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Exp2 reproduces Fig 3(c): response time vs |D| (10%–100% of cust16
// across 8 sites) for CTRDetect and PatDetectRT.
func Exp2(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	full := workload.Cust(workload.CustConfig{N: cfg.size(SizeCust16), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	rule := workload.CustPatternCFD(255)
	s := &Series{
		Figure:  "Fig 3(c)",
		Title:   "Exp-2: scalability with |D| (cust16, 8 sites)",
		XLabel:  "tuples",
		Unit:    "modeled response time cost(D,Σ,M)",
		Columns: []string{"CTRDetect", "PatDetectRT"},
	}
	for pct := 10; pct <= 100; pct += 10 {
		n := full.Len() * pct / 100
		part, err := relation.FromTuples(full.Schema(), full.Tuples()[:n])
		if err != nil {
			return nil, err
		}
		cl, err := clusterFor(part, 8, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 2)
		for _, algo := range []core.Algorithm{core.CTRDetect, core.PatDetectRT} {
			res, err := detectOnce(cl, []*cfd.CFD{rule}, algo, core.Options{Cost: cfg.Cost}, false)
			if err != nil {
				return nil, err
			}
			row = append(row, res.ModeledTime)
		}
		s.XS = append(s.XS, float64(n))
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Exp3 reproduces Fig 3(d): response time vs pattern tableau size
// (cust8, 8 sites) for CTRDetect and PatDetectRT.
func Exp3(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.Cust(workload.CustConfig{N: cfg.size(SizeCust8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	cl, err := clusterFor(d, 8, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Series{
		Figure:  "Fig 3(d)",
		Title:   "Exp-3: scalability with |Tp| (cust8, 8 sites)",
		XLabel:  "patterns",
		Unit:    "modeled response time cost(D,Σ,M)",
		Columns: []string{"CTRDetect", "PatDetectRT"},
	}
	for _, k := range []int{50, 100, 150, 200, 250} {
		rule := workload.CustPatternCFD(k)
		row := make([]float64, 0, 2)
		for _, algo := range []core.Algorithm{core.CTRDetect, core.PatDetectRT} {
			res, err := detectOnce(cl, []*cfd.CFD{rule}, algo, core.Options{Cost: cfg.Cost}, false)
			if err != nil {
				return nil, err
			}
			row = append(row, res.ModeledTime)
		}
		s.XS = append(s.XS, float64(k))
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Exp4 reproduces Fig 3(e): total data shipment vs mining frequency
// threshold θ on xrefH (human-only data, 7 fragments by reference
// type) for PatDetectS with and without the mining preprocessing.
func Exp4(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.XRefHuman(cfg.size(SizeXrefH), cfg.Seed)
	// Fragment by curation batch ("type of the references"): strongly
	// but imperfectly correlated with the FD's external_db attribute.
	h, err := partition.ByAttribute(d, "source")
	if err != nil {
		return nil, err
	}
	// The paper's fragments are given by reference type; predicates are
	// dropped so pruning does not mask the mining effect.
	h.Predicates = nil
	cl, err := core.FromHorizontal(h)
	if err != nil {
		return nil, err
	}
	rule := workload.XRefMiningFD()
	s := &Series{
		Figure:  "Fig 3(e)",
		Title:   "Exp-4: impact of mining on shipment (xrefH, FD, 7 fragments)",
		XLabel:  "theta",
		Unit:    "tuples shipped",
		Columns: []string{"PatDetectS", "PatDetectS+mining"},
	}
	plain, err := detectOnce(cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{Cost: cfg.Cost}, false)
	if err != nil {
		return nil, err
	}
	for _, theta := range []float64{0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		mined, err := detectOnce(cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{Cost: cfg.Cost, MineTheta: theta}, false)
		if err != nil {
			return nil, err
		}
		s.XS = append(s.XS, theta)
		s.Rows = append(s.Rows, []float64{float64(plain.ShippedTuples), float64(mined.ShippedTuples)})
	}
	return s, nil
}

// exp5Sweep runs the sequential (one unit per CFD) against the
// clustered (shared-σ units) strategy of §IV-C across the site sweep,
// reporting the chosen metric.
func exp5Sweep(cfg Config, d *relation.Relation, cfds []*cfd.CFD, figure, title, unit string,
	metric func(*core.Result) float64) (*Series, error) {
	s := &Series{
		Figure:  figure,
		Title:   title,
		XLabel:  "sites",
		Unit:    unit,
		Columns: []string{"sequential", "clustered"},
	}
	for _, n := range siteSweep {
		cl, err := clusterFor(d, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		seq, err := detectOnce(cl, cfds, core.PatDetectRT, core.Options{Cost: cfg.Cost, Workers: 1}, false)
		if err != nil {
			return nil, err
		}
		clu, err := detectOnce(cl, cfds, core.PatDetectRT, core.Options{Cost: cfg.Cost, Workers: 1}, true)
		if err != nil {
			return nil, err
		}
		s.XS = append(s.XS, float64(n))
		s.Rows = append(s.Rows, []float64{metric(seq), metric(clu)})
	}
	return s, nil
}

// Exp5ShipXref reproduces Fig 3(f): tuples shipped vs #sites for the
// two overlapping XREF CFDs.
func Exp5ShipXref(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.XRef(workload.XRefConfig{N: cfg.size(SizeXref8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	return exp5Sweep(cfg, d, []*cfd.CFD{workload.XRefCFD(), workload.XRefCFD2()},
		"Fig 3(f)", "Exp-5: shipment with |S|, multiple CFDs (xref8)", "tuples shipped",
		func(r *core.Result) float64 { return float64(r.ShippedTuples) })
}

// Exp5TimeXref reproduces Fig 3(g): response time vs #sites (xref8).
func Exp5TimeXref(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.XRef(workload.XRefConfig{N: cfg.size(SizeXref8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	return exp5Sweep(cfg, d, []*cfd.CFD{workload.XRefCFD(), workload.XRefCFD2()},
		"Fig 3(g)", "Exp-5: scalability with |S|, multiple CFDs (xref8)",
		"modeled response time cost(D,Σ,M)",
		func(r *core.Result) float64 { return r.ModeledTime })
}

// Exp5TimeCust reproduces Fig 3(h): response time vs #sites (cust8).
func Exp5TimeCust(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.Cust(workload.CustConfig{N: cfg.size(SizeCust8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	return exp5Sweep(cfg, d, workload.CustOverlappingCFDs(255, 128),
		"Fig 3(h)", "Exp-5: scalability with |S|, multiple CFDs (cust8)",
		"modeled response time cost(D,Σ,M)",
		func(r *core.Result) float64 { return r.ModeledTime })
}

// Exp6 reproduces Fig 3(i): response time vs |D| (cust16, 8 sites)
// for the multi-CFD algorithms.
func Exp6(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	full := workload.Cust(workload.CustConfig{N: cfg.size(SizeCust16), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	cfds := workload.CustOverlappingCFDs(255, 128)
	s := &Series{
		Figure:  "Fig 3(i)",
		Title:   "Exp-6: scalability with |D|, multiple CFDs (cust16, 8 sites)",
		XLabel:  "tuples",
		Unit:    "modeled response time cost(D,Σ,M)",
		Columns: []string{"sequential", "clustered"},
	}
	for pct := 10; pct <= 100; pct += 10 {
		n := full.Len() * pct / 100
		part, err := relation.FromTuples(full.Schema(), full.Tuples()[:n])
		if err != nil {
			return nil, err
		}
		cl, err := clusterFor(part, 8, cfg.Seed)
		if err != nil {
			return nil, err
		}
		seq, err := detectOnce(cl, cfds, core.PatDetectRT, core.Options{Cost: cfg.Cost, Workers: 1}, false)
		if err != nil {
			return nil, err
		}
		clu, err := detectOnce(cl, cfds, core.PatDetectRT, core.Options{Cost: cfg.Cost, Workers: 1}, true)
		if err != nil {
			return nil, err
		}
		s.XS = append(s.XS, float64(n))
		s.Rows = append(s.Rows, []float64{seq.ModeledTime, clu.ModeledTime})
	}
	return s, nil
}

// ExpIncremental is the beyond-the-paper panel of the incremental
// subsystem: tuples actually shipped per detection round as a function
// of |ΔD|/|D| (cust8, 4 sites, the overlapping CFD pair), fed by the
// same seeded delta streams the benchmarks and the property tests use.
// The full-recompute column is the equivalent channel the incremental
// result reports — byte-identical to a fresh Detect on the mutated
// cluster — so the two lines share one ground truth.
func ExpIncremental(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	d := workload.Cust(workload.CustConfig{N: cfg.size(SizeCust8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
	cfds := workload.CustOverlappingCFDs(128, 64)
	s := &Series{
		Figure:  "Inc",
		Title:   "Incremental: tuples shipped per round vs |ΔD|/|D| (cust8, 4 sites)",
		XLabel:  "delta fraction (%)",
		Unit:    "tuples shipped per detection round",
		Columns: []string{"incremental (delta channel)", "full recompute"},
	}
	for _, frac := range []float64{0.001, 0.005, 0.01, 0.05, 0.1} {
		h, err := partition.Uniform(d.Clone(), 4, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cl, err := core.FromHorizontal(h)
		if err != nil {
			return nil, err
		}
		//distcfd:ctxflow-ok — CLI experiment harness; no caller context exists
		p, err := core.CompileSet(context.Background(), cl, cfds, core.PatDetectRT, core.Options{Cost: cfg.Cost}, true)
		if err != nil {
			return nil, err
		}
		//distcfd:ctxflow-ok — CLI experiment harness; no caller context exists
		if _, err := p.DetectIncremental(context.Background()); err != nil { // seed round
			return nil, err
		}
		perSite := int(float64(d.Len()) * frac / 4)
		if perSite < 4 {
			perSite = 4
		}
		streams := workload.SplitStreams(h.Fragments,
			workload.DeltaConfig{Seed: cfg.Seed, Inserts: perSite / 2, Updates: perSite / 4, Deletes: perSite / 4, ErrRate: cfg.ErrRate},
			func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
				return workload.CustDeltaStream(f, c)
			})
		deltas := make(map[int]relation.Delta, len(streams))
		for i, ds := range streams {
			deltas[i] = ds.Next()
		}
		//distcfd:ctxflow-ok — CLI experiment harness; no caller context exists
		res, err := p.DetectDelta(context.Background(), deltas)
		if err != nil {
			return nil, err
		}
		s.XS = append(s.XS, frac*100)
		s.Rows = append(s.Rows, []float64{float64(res.DeltaShippedTuples), float64(res.ShippedTuples)})
	}
	return s, nil
}

// All lists the experiment drivers keyed by figure.
func All() []struct {
	Name string
	Run  func(Config) (*Series, error)
} {
	return []struct {
		Name string
		Run  func(Config) (*Series, error)
	}{
		{"3a", Exp1Cust},
		{"3b", Exp1Xref},
		{"3c", Exp2},
		{"3d", Exp3},
		{"3e", Exp4},
		{"3f", Exp5ShipXref},
		{"3g", Exp5TimeXref},
		{"3h", Exp5TimeCust},
		{"3i", Exp6},
		{"inc", ExpIncremental},
	}
}

// RunAll executes every experiment and prints each series to w.
func RunAll(cfg Config, w io.Writer) ([]*Series, error) {
	var out []*Series
	for _, e := range All() {
		s, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("exp %s: %w", e.Name, err)
		}
		s.Print(w)
		out = append(out, s)
	}
	return out, nil
}
