package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// This file is the plan-once/detect-many layer: CompileSet performs
// every Σ-side computation of Section IV exactly once — CFD validation
// against the cluster schema, constant/variable normalization,
// LHS-containment clustering, σ block-spec construction (including the
// Section IV-B mining preprocessing), and the violation pattern schema
// projections — and returns a plan whose Detect method re-evaluates
// only data-dependent state. Plans are safe for concurrent Detect
// calls: each run owns its Metrics and task keys, and the sites'
// fingerprint-keyed caches serve the repeated fragment-side routing.

// controlReplay is one recorded control-plane broadcast of the compile
// phase (the mined-pattern exchange), replayed into every run's
// metrics: the exchange happened once, but every run the paper's
// algorithm makes would have paid for it.
type controlReplay struct {
	from  int
	bytes int64
}

// unit is the compiled form of one independently runnable piece of a
// plan: ≥1 member CFDs related by LHS containment, their variable
// views, one σ spec over W = ∩ LHS shared by those views, and the
// per-member pattern schemas. Section IV-C defines multi-CFD detection
// as the single-CFD pipeline run per cluster, so a lone CFD is simply a
// unit of one. Units are immutable after compilation.
type unit struct {
	cl   *Cluster
	algo Algorithm
	opt  Options

	group   []*cfd.CFD
	schemas []*relation.Schema
	// constant marks the members with a constant unit: the only ones
	// the Proposition 5 local step can return anything for, so the only
	// ones a run asks the sites about.
	constant []bool
	views    []*cfd.CFD
	viewIdx  []int
	spec     *BlockSpec // nil when every member is constant-only
	// The mined spec of a lone all-wildcard CFD (Options.MineTheta) and
	// the pattern exchange it cost at compile time.
	mined   int
	control []controlReplay
}

func compileUnit(ctx context.Context, cl *Cluster, group []*cfd.CFD, algo Algorithm, opt Options) (*unit, error) {
	u := &unit{cl: cl, algo: algo, opt: opt, group: group}
	for ci, c := range group {
		if err := c.Validate(cl.schema); err != nil {
			return nil, fmt.Errorf("core: cfd %s: %w", c.Name, err)
		}
		ps, err := cl.schema.Project("viopi_"+c.Name, c.X)
		if err != nil {
			return nil, fmt.Errorf("core: cfd %s: %w", c.Name, err)
		}
		u.schemas = append(u.schemas, ps)
		u.constant = append(u.constant, slices.ContainsFunc(c.Normalize(), (*cfd.Normalized).IsConstant))
		if v, ok := c.VariableView(); ok {
			u.views = append(u.views, v)
			u.viewIdx = append(u.viewIdx, ci)
		}
	}
	var err error
	switch {
	case len(u.views) == 0:
	case len(group) == 1:
		u.spec, u.mined, u.control, err = compileSpec(ctx, cl, u.views[0], opt)
	default:
		w := sharedLHS(u.views)
		if len(w) == 0 {
			return nil, fmt.Errorf("core: cluster with empty shared LHS — clusterByLHS should prevent this")
		}
		u.spec, err = projectedSpec(w, u.views)
	}
	if err != nil {
		return nil, err
	}
	return u, nil
}

// unitOut is what one unit run reports: per-member patterns (aligned
// with the group), the modeled time, the run's metrics and the
// per-unit detail.
type unitOut struct {
	pats    []*relation.Relation
	modeled float64
	m       *dist.Metrics
	report  UnitReport
}

// detect runs one unit under the run's shared fault state: each
// attempt is a fresh pipeline with fresh metrics (failed attempts
// cancel their tasks and report nothing), re-run per the policy until
// it succeeds or the unit budget is spent.
func (u *unit) detect(ctx context.Context, fs *faultState) (*unitOut, error) {
	for attempt := 0; ; attempt++ {
		out, err := u.run(ctx, fs, nil)
		if err == nil {
			return out, nil
		}
		if retry, rerr := fs.unitFailure(ctx, attempt, err); !retry {
			return nil, rerr
		}
	}
}

// Plan is the compiled form of a detection request over a cluster: the
// CFD set, its clustering, and one compiled unit per cluster. Apart
// from the incremental sessions (guarded by incMu) a Plan is immutable
// after compilation and safe for concurrent Detect calls.
type Plan struct {
	cl       *Cluster
	algo     Algorithm
	opt      Options
	cfds     []*cfd.CFD
	clusters [][]int
	units    []*unit // aligned with clusters

	// sigma is the static Σ-analysis report (Options.Sigma); nil under
	// SigmaOff.
	sigma *cfd.SigmaReport

	// incMu serializes DetectIncremental rounds, which mutate the
	// per-unit sessions in inc (aligned with units); Detect stays
	// lock-free and concurrent.
	incMu sync.Mutex
	inc   []unitInc
}

// CompileSet compiles the detection plan for a CFD set. With clustered
// true, CFDs whose LHS attribute sets are related by containment are
// merged into shared-σ units (the paper's clustered strategy, §IV-C);
// otherwise every CFD is its own unit (the sequential strategy). All
// Σ-side work — validation, clustering, spec construction, mining —
// happens here; when mining applies (MineTheta > 0, multi-site, a lone
// all-wildcard CFD) the sites are mined here, once.
func CompileSet(ctx context.Context, cl *Cluster, cfds []*cfd.CFD, algo Algorithm, opt Options, clustered bool) (*Plan, error) {
	if len(cfds) == 0 {
		return nil, fmt.Errorf("core: compile with no CFDs")
	}
	if math.IsNaN(opt.MineTheta) { // would read as "mining off" below
		return nil, fmt.Errorf("core: MineTheta is NaN")
	}
	opt = opt.withDefaults()
	sigmaReport, err := analyzeSigma(cfds, opt.Sigma)
	if err != nil {
		return nil, err
	}
	var clusters [][]int
	if clustered {
		clusters = clusterByLHS(cfds)
	} else {
		clusters = make([][]int, len(cfds))
		for i := range cfds {
			clusters[i] = []int{i}
		}
	}
	p := &Plan{cl: cl, algo: algo, opt: opt, cfds: cfds, clusters: clusters,
		sigma: sigmaReport, inc: make([]unitInc, len(clusters))}
	for _, members := range clusters {
		group := make([]*cfd.CFD, len(members))
		for i, idx := range members {
			group[i] = cfds[idx]
		}
		u, err := compileUnit(ctx, cl, group, algo, opt)
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, u)
	}
	return p, nil
}

// DetectOnce compiles cfds and runs the plan once: the one-shot form
// for experiments, examples and tests. Anything serving repeated
// traffic compiles once and calls Detect / DetectIncremental.
func DetectOnce(ctx context.Context, cl *Cluster, cfds []*cfd.CFD, algo Algorithm, opt Options, clustered bool) (*Result, error) {
	p, err := CompileSet(ctx, cl, cfds, algo, opt, clustered)
	if err != nil {
		return nil, err
	}
	return p.Detect(ctx)
}

// SigmaReport returns the compile-time Σ analysis report, or nil when
// the plan was compiled with Options.SigmaOff.
func (p *Plan) SigmaReport() *cfd.SigmaReport { return p.sigma }

// Single returns a one-CFD plan for cfds[i] under this plan's
// algorithm and options. When the plan already processes cfds[i] as a
// unit of its own, the compiled unit is shared — no second mining
// pass; otherwise (a member of a merged cluster) it is compiled here.
func (p *Plan) Single(ctx context.Context, i int) (*Plan, error) {
	one := p.cfds[i : i+1 : i+1]
	var u *unit
	for gi, members := range p.clusters {
		if len(members) == 1 && members[0] == i {
			u = p.units[gi]
		}
	}
	if u == nil {
		var err error
		if u, err = compileUnit(ctx, p.cl, one, p.algo, p.opt); err != nil {
			return nil, err
		}
	}
	return &Plan{cl: p.cl, algo: p.algo, opt: p.opt, cfds: one, clusters: [][]int{{0}},
		units: []*unit{u}, inc: make([]unitInc, 1)}, nil
}

// Detect runs the compiled plan once, re-evaluating all data-dependent
// state (fragment sizes, constant units, σ routing, shipping,
// coordinator checks) under ctx. Up to Options.Workers independent
// units run at once; each coordinator check shards its rows by its
// site's own budget (Site.SetDetectParallelism). Results are merged in
// deterministic cluster order, so the violation sets, shipment totals,
// and modeled time are identical at every worker count. Cancellation
// mid-run stops pending units and cancels in-flight tasks at every
// site, so no deposit outlives the run.
//
// Under an active failure policy (Options.Failure), site failures a
// per-call retry could not absorb re-run the failed unit — a failed
// attempt cancels its task and discards its metrics, so the attempt
// that succeeds is exactly a clean run.
func (p *Plan) Detect(ctx context.Context) (*Result, error) {
	start := time.Now()
	fs := newFaultState(p.cl, p.opt)
	for {
		excludedBefore := len(fs.excludedSites())
		res, total, err := p.pass(ctx, fs, start, false)
		if err != nil {
			return nil, err
		}
		// A FailDegrade run whose exclusion set grew mid-pass re-runs
		// every unit: units that completed before the exclusion saw the
		// richer site set, and a coherent degraded result must cover one
		// stable reachable-fragment set. Exclusions only grow and are
		// bounded by the site count, so this terminates; a fault-free
		// run is always a single pass.
		if len(fs.excludedSites()) == excludedBefore {
			p.finishFailure(res, total, fs)
			return res, nil
		}
	}
}

// finishFailure stamps the fault channel and the degraded-result
// fields onto a completed result and snapshots the run's metrics (once
// per run).
func (p *Plan) finishFailure(res *Result, total *dist.Metrics, fs *faultState) {
	fs.stamp(total)
	res.Shipment = total.Snapshot()
	res.Retries, res.Faults = fs.totals()
	res.ExcludedSites = fs.excludedSites()
	res.Partial = len(res.ExcludedSites) > 0
	res.Coverage = 1
	if res.Partial {
		if sizes, err := p.cl.fragmentSizes(); err == nil {
			res.Coverage = fs.coverage(sizes)
		}
	}
}

// pass runs every unit once on a pool of up to Options.Workers, a pool
// of one being the strictly serial schedule, and assembles a Result
// beside the run's merged metrics, which finishFailure snapshots. A
// fresh pass retries each unit under the shared fault state; an
// incremental pass runs each unit's round against its own retained
// session (p.inc[gi]), recovering by the round-level reseed inside the
// unit. Fail fast: once any unit has errored or the context has died,
// units not yet started never start, instead of shipping tuples the
// caller will discard.
func (p *Plan) pass(ctx context.Context, fs *faultState, start time.Time, incremental bool) (*Result, *dist.Metrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	outs := make([]*unitOut, len(p.units))
	errs := make([]error, len(p.units))
	sem := make(chan struct{}, p.opt.Workers)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for gi, u := range p.units {
		sem <- struct{}{}
		if failed.Load() || ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(gi int, u *unit) {
			defer wg.Done()
			defer func() { <-sem }()
			if incremental {
				outs[gi], errs[gi] = u.run(ctx, fs, &p.inc[gi])
			} else {
				outs[gi], errs[gi] = u.detect(ctx, fs)
			}
			if errs[gi] != nil {
				failed.Store(true)
			}
		}(gi, u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	total := dist.NewMetrics(p.cl.N())
	res := &Result{
		CFDs:        p.cfds,
		PerCFD:      make([]*relation.Relation, len(p.cfds)),
		Clusters:    p.clusters,
		Units:       make([]UnitReport, len(p.units)),
		Incremental: incremental,
	}
	// ModeledTime adds the units up in first-member index order, which
	// is not cluster order once splitForNonEmptyW has regrouped: at
	// holds each unit's modeled time at its first member, 0 elsewhere.
	at := make([]float64, len(p.cfds))
	for gi, out := range outs {
		total.Merge(out.m)
		at[p.clusters[gi][0]] = out.modeled
		res.Units[gi] = out.report
		for i, idx := range p.clusters[gi] {
			res.PerCFD[idx] = out.pats[i]
		}
	}
	for _, t := range at {
		res.ModeledTime += t
	}
	res.ShippedTuples = total.TotalTuples()
	res.DeltaShippedTuples = total.DeltaTuples()
	res.DeltaShippedBytes = total.DeltaBytes()
	res.WallTime = time.Since(start)
	return res, total, nil
}

func allWildcardLHS(c *cfd.CFD) bool {
	for _, tp := range c.Tp {
		for _, v := range tp.LHS {
			if v != cfd.Wildcard {
				return false
			}
		}
	}
	return true
}

// compileSpec derives the σ-partitioning for a variable view. When
// mining is enabled and every LHS pattern is all-wildcard (the CFD is
// effectively an FD), the sites mine closed frequent patterns which
// replace the wildcard row, keeping a catch-all wildcard row last; the
// pattern-exchange control traffic is recorded for replay into each
// run's metrics.
func compileSpec(ctx context.Context, cl *Cluster, view *cfd.CFD, opt Options) (*BlockSpec, int, []controlReplay, error) {
	useMining := opt.MineTheta > 0 && cl.N() > 1 && allWildcardLHS(view)
	if !useMining {
		spec, err := SpecFromCFD(view)
		return spec, 0, nil, err
	}
	lists := make([][]mining.Pattern, cl.N())
	if err := cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
		ps, err := cl.sites[i].MineFrequent(ctx, view.X, opt.MineTheta)
		if err != nil {
			return err
		}
		lists[i] = ps
		return nil
	}); err != nil {
		return nil, 0, nil, err
	}
	// Pattern exchange: each site broadcasts its mined patterns
	// (control traffic, not tuple shipment) — recorded here, charged at
	// every run.
	var control []controlReplay
	for i, ps := range lists {
		var bytes int64
		for _, p := range ps {
			for _, v := range p.Vals {
				bytes += int64(len(v)) + 1
			}
			bytes += 8 // the support share
		}
		if bytes > 0 {
			control = append(control, controlReplay{from: i, bytes: bytes})
		}
	}
	// Concentration-ranked merge (see mining.MergeRanked): among
	// equally general patterns, the one dense at a single site claims
	// its tuples first, keeping that block local.
	merged := mining.MergeRanked(lists...)
	patterns := make([][]string, 0, len(merged)+1)
	for _, p := range merged {
		patterns = append(patterns, p.Vals)
	}
	wild := make([]string, len(view.X))
	for i := range wild {
		wild[i] = cfd.Wildcard
	}
	patterns = append(patterns, wild)
	spec, err := NewBlockSpecOrdered(view.X, patterns)
	if err != nil {
		return nil, 0, nil, err
	}
	return spec, len(merged), control, nil
}
