package distcfd

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"distcfd/internal/core"
	"distcfd/internal/remote"
)

// This file is the compiled-session API: Compile performs every Σ-side
// computation once (validation, normalization, LHS-containment
// clustering, σ block specs, pattern mining, pattern-schema
// projections) and returns a long-lived Detector that serves any
// number of concurrent Detect / DetectOne calls, each re-evaluating
// only data-dependent state under its caller's context, configured by
// functional options.

// config collects the functional options of Compile.
type config struct {
	algo      Algorithm
	opt       core.Options
	clustered bool
}

func defaultConfig() config {
	return config{algo: PatDetectRT, clustered: true}
}

// Option configures Compile.
type Option func(*config)

// WithAlgorithm selects the single-CFD detection algorithm
// (CTRDetect, PatDetectS, or PatDetectRT). Default: PatDetectRT, the
// paper's response-time-optimizing variant.
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algo = a } }

// WithWorkers sets how many independent CFD clusters a Detect or
// DetectIncremental call overlaps. 0 (the default) selects GOMAXPROCS;
// 1 runs them one at a time. Each site shards the rows of its own
// checks across its machine's cores whatever this is set to. The
// violation sets, shipment totals, and modeled time are identical at
// every worker count — only wall-clock time changes.
func WithWorkers(n int) Option { return func(c *config) { c.opt.Workers = n } }

// WithMineTheta enables the Section IV-B mining preprocessing for CFDs
// whose variable patterns are all-wildcard (traditional FDs): at
// compile time each site mines closed frequent LHS patterns with
// support ≥ theta·|Di|, and σ partitions on the merged patterns plus a
// catch-all wildcard row. Mining runs once per Compile, not per
// Detect.
func WithMineTheta(theta float64) Option { return func(c *config) { c.opt.MineTheta = theta } }

// WithSigmaAnalysis selects the compile-time static analysis of the
// rule set (Fan et al., TODS 2008, via the tableau chase). SigmaCheck
// makes Compile fail fast with a witness-bearing *InconsistentError
// when Σ is unsatisfiable — the error names the attribute forced to
// two distinct constants, the rule that forced it, and the chase
// bindings — instead of planning, mining, and shipping for a rule set
// every non-empty instance violates. The full report (implied units,
// irreducible cover, duplicates) is retained on the Detector (see
// Detector.SigmaReport); Σ still compiles and runs exactly as given, a
// duplicate CFD being named in the report for the user to delete from
// the rule file.
//
// The default is SigmaOff: no analysis.
func WithSigmaAnalysis(mode SigmaMode) Option { return func(c *config) { c.opt.Sigma = mode } }

// WithClustering controls whether CFDs whose LHS attribute sets are
// related by containment are merged into shared-σ clusters (the
// paper's clustered strategy, the default) or processed independently
// (its sequential strategy).
func WithClustering(on bool) Option { return func(c *config) { c.clustered = on } }

// WithFailurePolicy selects how Detect calls respond to site failures:
//
//   - FailFast (the default) surfaces the first failure as an error,
//     exactly the pre-policy behavior.
//   - FailRetry retries transient failures per site with capped
//     exponential backoff and jitter, re-dialing dead connections;
//     retried calls are at-most-once on the site (task nonces), and a
//     run that succeeds after retries reports violations,
//     ShippedTuples, and ModeledTime byte-identical to a fault-free
//     run — the retries show only on Result.Retries/Faults and the
//     Shipment fault channels.
//   - FailDegrade additionally excludes a site that stays down after
//     the retry budget and completes over the reachable fragments:
//     Result.Partial is set, ExcludedSites names the dropped sites,
//     Coverage reports the reachable tuple fraction, and every
//     reported violation is a true violation of the reachable data.
//
// Incremental serving never excludes sites (exclusion would corrupt
// the retained coordinator state); under FailDegrade it behaves like
// FailRetry.
func WithFailurePolicy(p FailurePolicy) Option { return func(c *config) { c.opt.Failure = p } }

// WithPackedShipping toggles the packed σ-block shipment form:
// store-backed extracts that can serve their column chunks directly
// ship them bit-packed/RLE-compressed instead of as dict+ID vectors.
// On by default; disabling it forces every shipment into the row or
// dict+ID form. The switch changes only the wire encoding and the byte
// accounting (Shipment.TotalBytes) — violations, shipped-tuple counts,
// and modeled time are identical either way, because the paper's cost
// model bills tuples.
func WithPackedShipping(on bool) Option { return func(c *config) { c.opt.NoPackedShip = !on } }

// Detector is a compiled, long-lived detection session over a cluster
// and a CFD set. It is immutable after Compile and safe for concurrent
// use: every Detect call owns its run state, and the sites cache the
// fragment-side routing across calls, so repeated detection costs only
// the data-dependent work.
type Detector struct {
	cl   *Cluster
	cfds []*CFD
	plan *core.Plan

	mu      sync.Mutex
	singles map[int]*core.Plan // one-CFD plans behind DetectOne, made on first use
}

// Compile performs all Σ-side work for detecting cfds over the
// cluster — normalization, LHS-containment clustering, σ-routing
// specs, pattern mining, dictionary-facing pattern resolution — and
// returns a Detector that serves repeated Detect / DetectOne calls.
//
//	det, err := distcfd.Compile(cluster, rules,
//	    distcfd.WithAlgorithm(distcfd.PatDetectRT),
//	    distcfd.WithWorkers(8))
//	...
//	res, err := det.Detect(ctx) // as often as data changes
func Compile(cl *Cluster, cfds []*CFD, opts ...Option) (*Detector, error) {
	return CompileContext(context.Background(), cl, cfds, opts...)
}

// CompileContext is Compile under a context: compilation itself can
// perform site work (the WithMineTheta mining preprocessing runs
// against every site), so a cancelled or deadline-exceeded ctx aborts
// it instead of blocking on an unresponsive cluster.
func CompileContext(ctx context.Context, cl *Cluster, cfds []*CFD, opts ...Option) (*Detector, error) {
	if cl == nil {
		return nil, fmt.Errorf("distcfd: Compile with nil cluster")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	plan, err := core.CompileSet(ctx, cl, cfds, cfg.algo, cfg.opt, cfg.clustered)
	if err != nil {
		return nil, err
	}
	return &Detector{
		cl:      cl,
		cfds:    cfds,
		plan:    plan,
		singles: make(map[int]*core.Plan),
	}, nil
}

// CFDs returns the compiled dependency set.
func (d *Detector) CFDs() []*CFD { return d.cfds }

// SigmaReport returns the compile-time Σ analysis report, or nil when
// the session was compiled without WithSigmaAnalysis.
func (d *Detector) SigmaReport() *SigmaReport { return d.plan.SigmaReport() }

// Detect runs the compiled session once over the cluster's current
// data, re-evaluating only data-dependent state (fragment sizes,
// constant units, σ routing, shipping, coordinator checks). The
// context cancels the run end to end: a cancelled or deadline-exceeded
// Detect stops pending phases, and every site drains — and tombstones
// — the run's deposit buffers, so no shipped batch outlives the call.
func (d *Detector) Detect(ctx context.Context) (*Result, error) { return d.plan.Detect(ctx) }

// Apply routes a delta — inserted tuples plus deletes addressed by
// row index in the site's current fragment — to one site of the
// cluster. The site is the only writer of its rows: it mutates its
// fragment, rolls its serving caches forward (instead of resetting
// them), and logs the delta so the next DetectIncremental ships only
// what changed. Apply serializes with this Detector's
// DetectIncremental and DetectDelta calls and follows its failure
// policy: under FailRetry an apply whose reply was lost is re-issued
// and lands once. It must not overlap a running Detect on the same
// cluster.
func (d *Detector) Apply(ctx context.Context, site int, delta Delta) (Generation, error) {
	return d.plan.Apply(ctx, site, delta)
}

// DetectIncremental runs the compiled session against the cluster's
// current data from retained delta state: only tuples that changed
// since the previous call are σ-routed, shipped (as delta blocks on
// the wire), and folded into the coordinators' retained group states.
// The Result's violation patterns, ShippedTuples, and ModeledTime are
// byte-identical to what Detect would report on the same data — the
// serving mode never bends the figures — while DeltaShippedTuples and
// DeltaShippedBytes report the actual wire traffic, which scales with
// |ΔD| rather than |D|.
//
// The first call (and any call after an error, a site restart or a
// trimmed delta log) transparently reseeds with one full shipment;
// however many deletes a session folds, it does not reseed for them.
// Calls serialize with each other and with Apply; Detect calls may
// interleave freely between rounds.
func (d *Detector) DetectIncremental(ctx context.Context) (*Result, error) {
	return d.plan.DetectIncremental(ctx)
}

// DetectDelta applies per-site deltas and runs one incremental round —
// the ΔD-in, changes-out serving shape of a follow-the-stream caller.
func (d *Detector) DetectDelta(ctx context.Context, deltas map[int]Delta) (*Result, error) {
	return d.plan.DetectDelta(ctx, deltas)
}

// DetectOne runs a single named CFD of the compiled set as a plan of
// one, reusing the compiled artifacts (for CFDs the set plan processes
// as units of their own, the very same compiled unit).
func (d *Detector) DetectOne(ctx context.Context, name string) (*Result, error) {
	idx := -1
	for i, c := range d.cfds {
		if c.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		var names []string
		for _, c := range d.cfds {
			names = append(names, c.Name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("distcfd: no compiled CFD named %q (have %v)", name, names)
	}
	sp, err := d.singlePlan(ctx, idx)
	if err != nil {
		return nil, err
	}
	return sp.Detect(ctx)
}

// HealthDetail reports each site's health snapshot: the circuit-breaker
// state (BreakerClosed for healthy sites and for sites a FailFast
// session never retried, BreakerOpen while calls are rejected after
// repeated transient failures, BreakerHalfOpen while one probe tests
// recovery) plus whether the site is known to be draining — for local
// admission-controlled sites the controller's own state, for remote
// sites the last drain signal seen on the wire. The snapshot never
// probes: a site that drained without this driver ever calling it
// reports Draining=false until a call observes the rejection.
func (d *Detector) HealthDetail() []SiteHealth { return d.cl.HealthDetail() }

// Drain asks one site to retire gracefully: in-flight work finishes
// (bounded by the site's DrainTimeout), new work is refused with the
// typed draining error until Resume. Through this API only a remote
// site served with cfdsite -admit exposes the drain surface; anything
// else rejects the call. Under
// FailDegrade the drained site is excluded and assignment re-runs over
// the rest; its circuit breaker stays closed — draining is not death.
func (d *Detector) Drain(ctx context.Context, site int) error {
	if site < 0 || site >= d.cl.N() {
		return fmt.Errorf("distcfd: Drain site %d of %d", site, d.cl.N())
	}
	dr, ok := d.cl.Site(site).(Drainer)
	if !ok {
		return fmt.Errorf("distcfd: site %d has no admission controller to drain (serve it with cfdsite -admit)", site)
	}
	return dr.Drain(ctx)
}

// Resume re-opens admission on a drained site (operator rollback). A
// site with no drain surface is left alone.
func (d *Detector) Resume(site int) {
	if site < 0 || site >= d.cl.N() {
		return
	}
	if dr, ok := d.cl.Site(site).(Drainer); ok {
		dr.Resume()
	}
}

func (d *Detector) singlePlan(ctx context.Context, idx int) (*core.Plan, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sp, ok := d.singles[idx]; ok {
		return sp, nil
	}
	sp, err := d.plan.Single(ctx, idx)
	if err != nil {
		return nil, err
	}
	d.singles[idx] = sp
	return sp, nil
}

// NewLocalCluster wraps an unpartitioned relation as a single-site
// in-process cluster — the serving shape of the centralized SQL
// technique of [2], useful for compiling a Detector over data that is
// not fragmented.
func NewLocalCluster(d *Relation) (*Cluster, error) {
	return NewCluster(&Horizontal{Schema: d.Schema(), Fragments: []*Relation{d}})
}

// DialConfig tunes the client side of the wire: CallTimeout, each
// RPC's budget — a site that does not answer a call within it is
// treated as failed instead of blocking the run forever, and abandons
// the call's work. The budget is fixed at dial for the life of the
// cluster's connections; a deadline for a whole detection run is the
// caller's business — pass a context.WithTimeout/WithDeadline ctx to
// Detect.
type DialConfig = remote.DialConfig

// NewRemoteClusterConfig is NewRemoteCluster with an explicit per-call
// budget (see DialConfig); position in addrs = site ID.
func NewRemoteClusterConfig(addrs []string, cfg DialConfig) (*Cluster, error) {
	sites, schema, err := remote.DialWithConfig(addrs, cfg)
	if err != nil {
		return nil, err
	}
	return core.NewCluster(schema, sites)
}
