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

// metric is what a panel reads off each run, with the unit it plots in.
type metric struct {
	unit string
	of   func(*core.Result) float64
}

var (
	modeledTime = metric{"modeled response time cost(D,Σ,M)", func(r *core.Result) float64 { return r.ModeledTime }}
	shipped     = metric{"tuples shipped", func(r *core.Result) float64 { return float64(r.ShippedTuples) }}
)

// column is one plotted line: an algorithm under the sequential (one
// unit per CFD) or the clustered (shared-σ units, §IV-C) strategy.
type column struct {
	name      string
	algo      core.Algorithm
	clustered bool
}

func algoColumns(algos ...core.Algorithm) []column {
	cols := make([]column, len(algos))
	for i, a := range algos {
		cols[i] = column{name: a.String(), algo: a}
	}
	return cols
}

var (
	allAlgos       = algoColumns(core.CTRDetect, core.PatDetectS, core.PatDetectRT)
	ctrVsRT        = algoColumns(core.CTRDetect, core.PatDetectRT)
	seqVsClustered = []column{{"sequential", core.PatDetectRT, false}, {"clustered", core.PatDetectRT, true}}
)

// panel is one Figure 3 sweep: at every x a cluster and a rule set,
// every column run over them, one metric read off each run.
type panel struct {
	figure, title, xLabel string
	xs                    []int
	at                    func(x int) (*core.Cluster, []*cfd.CFD, error)
	columns               []column
	metric                metric
}

// sweep runs the panel. Workers is pinned to 1: the figures are modeled
// quantities, identical at every worker count.
func sweep(cfg Config, p panel) (*Series, error) {
	s := &Series{Figure: p.figure, Title: p.title, XLabel: p.xLabel, Unit: p.metric.unit}
	for _, c := range p.columns {
		s.Columns = append(s.Columns, c.name)
	}
	for _, x := range p.xs {
		cl, rules, err := p.at(x)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(p.columns))
		for j, c := range p.columns {
			res, err := detectOnce(cl, rules, c.algo, core.Options{Workers: 1}, c.clustered)
			if err != nil {
				return nil, err
			}
			row[j] = p.metric.of(res)
		}
		s.XS = append(s.XS, float64(x))
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// overSites is the x axis of the |S| panels: d uniformly partitioned
// over x sites, the rules fixed.
func overSites(cfg Config, d *relation.Relation, rules ...*cfd.CFD) func(int) (*core.Cluster, []*cfd.CFD, error) {
	return func(n int) (*core.Cluster, []*cfd.CFD, error) {
		cl, err := clusterFor(d, n, cfg.Seed)
		return cl, rules, err
	}
}

// overSizes is the x axis of the |D| panels: the first x tuples of
// full over 8 sites for x at 10%–100% of it, the rules fixed.
func overSizes(cfg Config, full *relation.Relation, rules ...*cfd.CFD) ([]int, func(int) (*core.Cluster, []*cfd.CFD, error)) {
	var xs []int
	for pct := 10; pct <= 100; pct += 10 {
		xs = append(xs, full.Len()*pct/100)
	}
	return xs, func(n int) (*core.Cluster, []*cfd.CFD, error) {
		part, err := relation.FromTuples(full.Schema(), full.Tuples()[:n])
		if err != nil {
			return nil, nil, err
		}
		cl, err := clusterFor(part, 8, cfg.Seed)
		return cl, rules, err
	}
}

func cust(cfg Config, base int) *relation.Relation {
	return workload.Cust(workload.CustConfig{N: cfg.size(base), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
}

func xref8(cfg Config) *relation.Relation {
	return workload.XRef(workload.XRefConfig{N: cfg.size(SizeXref8), Seed: cfg.Seed, ErrRate: cfg.ErrRate})
}

// Exp1Cust reproduces Fig 3(a): response time vs #sites on cust8 for
// the three single-CFD algorithms (CFD: 4 attributes, 255 patterns).
func Exp1Cust(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, panel{
		figure: "Fig 3(a)", title: "Exp-1: scalability with |S| (cust8), CFD with 255 patterns",
		xLabel: "sites", xs: siteSweep, at: overSites(cfg, cust(cfg, SizeCust8), workload.CustPatternCFD(255)),
		columns: allAlgos, metric: modeledTime,
	})
}

// Exp1Xref reproduces Fig 3(b): the same sweep on xref8 (CFD: 5
// attributes, 11 patterns).
func Exp1Xref(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, panel{
		figure: "Fig 3(b)", title: "Exp-1: scalability with |S| (xref8), CFD with 11 patterns",
		xLabel: "sites", xs: siteSweep, at: overSites(cfg, xref8(cfg), workload.XRefCFD()),
		columns: allAlgos, metric: modeledTime,
	})
}

// Exp2 reproduces Fig 3(c): response time vs |D| (10%–100% of cust16
// across 8 sites) for CTRDetect and PatDetectRT.
func Exp2(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	xs, at := overSizes(cfg, cust(cfg, SizeCust16), workload.CustPatternCFD(255))
	return sweep(cfg, panel{
		figure: "Fig 3(c)", title: "Exp-2: scalability with |D| (cust16, 8 sites)",
		xLabel: "tuples", xs: xs, at: at,
		columns: ctrVsRT, metric: modeledTime,
	})
}

// Exp3 reproduces Fig 3(d): response time vs pattern tableau size
// (cust8, 8 sites) for CTRDetect and PatDetectRT.
func Exp3(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	cl, err := clusterFor(cust(cfg, SizeCust8), 8, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return sweep(cfg, panel{
		figure: "Fig 3(d)", title: "Exp-3: scalability with |Tp| (cust8, 8 sites)",
		xLabel: "patterns", xs: []int{50, 100, 150, 200, 250},
		at: func(k int) (*core.Cluster, []*cfd.CFD, error) {
			return cl, []*cfd.CFD{workload.CustPatternCFD(k)}, nil
		},
		columns: ctrVsRT, metric: modeledTime,
	})
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
		Unit:    shipped.unit,
		Columns: []string{"PatDetectS", "PatDetectS+mining"},
	}
	plain, err := detectOnce(cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{}, false)
	if err != nil {
		return nil, err
	}
	for _, theta := range []float64{0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		mined, err := detectOnce(cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{MineTheta: theta}, false)
		if err != nil {
			return nil, err
		}
		s.XS = append(s.XS, theta)
		s.Rows = append(s.Rows, []float64{float64(plain.ShippedTuples), float64(mined.ShippedTuples)})
	}
	return s, nil
}

// Exp5ShipXref reproduces Fig 3(f): tuples shipped vs #sites for the
// two overlapping XREF CFDs, sequential against clustered.
func Exp5ShipXref(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, panel{
		figure: "Fig 3(f)", title: "Exp-5: shipment with |S|, multiple CFDs (xref8)",
		xLabel: "sites", xs: siteSweep, at: overSites(cfg, xref8(cfg), workload.XRefCFD(), workload.XRefCFD2()),
		columns: seqVsClustered, metric: shipped,
	})
}

// Exp5TimeXref reproduces Fig 3(g): response time vs #sites (xref8).
func Exp5TimeXref(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, panel{
		figure: "Fig 3(g)", title: "Exp-5: scalability with |S|, multiple CFDs (xref8)",
		xLabel: "sites", xs: siteSweep, at: overSites(cfg, xref8(cfg), workload.XRefCFD(), workload.XRefCFD2()),
		columns: seqVsClustered, metric: modeledTime,
	})
}

// Exp5TimeCust reproduces Fig 3(h): response time vs #sites (cust8).
func Exp5TimeCust(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, panel{
		figure: "Fig 3(h)", title: "Exp-5: scalability with |S|, multiple CFDs (cust8)",
		xLabel: "sites", xs: siteSweep, at: overSites(cfg, cust(cfg, SizeCust8), workload.CustOverlappingCFDs(255, 128)...),
		columns: seqVsClustered, metric: modeledTime,
	})
}

// Exp6 reproduces Fig 3(i): response time vs |D| (cust16, 8 sites)
// for the multi-CFD algorithms.
func Exp6(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	xs, at := overSizes(cfg, cust(cfg, SizeCust16), workload.CustOverlappingCFDs(255, 128)...)
	return sweep(cfg, panel{
		figure: "Fig 3(i)", title: "Exp-6: scalability with |D|, multiple CFDs (cust16, 8 sites)",
		xLabel: "tuples", xs: xs, at: at,
		columns: seqVsClustered, metric: modeledTime,
	})
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
	d := cust(cfg, SizeCust8)
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
		p, err := core.CompileSet(context.Background(), cl, cfds, core.PatDetectRT, core.Options{}, true)
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
