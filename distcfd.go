// Package distcfd is the public API of the library: detecting
// violations of conditional functional dependencies (CFDs) in
// relations that are horizontally or vertically fragmented across
// sites, implementing Fan, Geerts, Ma, Müller — "Detecting
// Inconsistencies in Distributed Data" (ICDE 2010).
//
// The central abstraction is the compiled detection session: Compile
// performs all constraint-side work once — Σ normalization,
// LHS-containment clustering, σ-routing block specs, pattern mining —
// and returns a long-lived Detector serving any number of concurrent,
// context-cancellable Detect calls, each re-evaluating only the
// data-dependent state:
//
//	data, _ := distcfd.ReadCSV(f, "orders", "id")
//	rules, _ := distcfd.ParseRules(strings.NewReader(`
//	    city_rule: [CC, AC] -> [city] : (44, 131 || EDI)
//	    street_fd: [CC, zip] -> [street]`))
//	part, _ := distcfd.PartitionUniform(data, 4, 7)
//	cluster, _ := distcfd.NewCluster(part)
//	det, _ := distcfd.Compile(cluster, rules,
//	    distcfd.WithAlgorithm(distcfd.PatDetectRT))
//	res, _ := det.Detect(ctx)                  // the whole rule set
//	one, _ := det.DetectOne(ctx, "city_rule")  // a single rule
//	fmt.Println(res.Patterns("street_fd"))     // Vioπ: violating LHS patterns
//
// Under continuously arriving data, detection is delta-aware: route
// changes through Detector.Apply (or DetectDelta) and serve with
// DetectIncremental — only the changed tuples cross the wire, folded
// into retained state at the coordinator sites, while violations,
// ShippedTuples, and ModeledTime stay byte-identical to a fresh
// Detect on the same data:
//
//	det.Apply(ctx, site, distcfd.Delta{Inserts: rows, Deletes: idxs})
//	inc, _ := det.DetectIncremental(ctx)       // ships O(|ΔD|), not O(|D|)
//	fmt.Println(inc.DeltaShippedTuples)        // actual wire traffic
//
// The facade additionally re-exports the stable types of the internal
// packages via aliases and adds convenience constructors, so
// applications only import this package.
//
// See the examples/ directory for complete programs and DESIGN.md for
// the paper-to-package map.
package distcfd

import (
	"context"
	"io"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/dist"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/remote"
	"distcfd/internal/vertical"
)

// Data model.
type (
	// Schema is a relation schema (name, attributes, key).
	Schema = relation.Schema
	// Tuple is one row.
	Tuple = relation.Tuple
	// Relation is an in-memory instance of a schema.
	Relation = relation.Relation
	// Predicate is a conjunctive selection predicate (fragment
	// predicate Fi).
	Predicate = relation.Predicate
	// Delta is a batch mutation of a fragment: inserts plus deletes by
	// pre-delta row index; the unit of change of incremental serving
	// (Detector.Apply / DetectIncremental).
	Delta = relation.Delta
)

// Dependencies.
type (
	// CFD is a conditional functional dependency (X → Y, Tp).
	CFD = cfd.CFD
	// PatternTuple is one row of a CFD's pattern tableau.
	PatternTuple = cfd.PatternTuple
	// FD is a plain functional dependency over attribute names.
	FD = cfd.FD
	// SigmaReport is the result of the static Σ analysis (consistency
	// witness, implied units, irreducible cover, duplicate CFDs).
	SigmaReport = cfd.SigmaReport
	// Witness explains an inconsistent Σ: the attribute the chase
	// forces to two distinct constants, and the chase state.
	Witness = cfd.Witness
	// InconsistentError is the witness-bearing error Compile returns
	// for an inconsistent Σ under WithSigmaAnalysis.
	InconsistentError = cfd.InconsistentError
)

// AnalyzeSigma runs the static analyses of Fan et al. (TODS 2008) over
// a CFD set: consistency (with a concrete witness on failure), implied
// (redundant) normalized units, an irreducible cover, and duplicate
// CFDs identical up to their name. Compile runs the same analysis when
// asked to via WithSigmaAnalysis; this entry point serves lint-style
// inspection (cfddetect -lint) without a cluster.
func AnalyzeSigma(cfds []*CFD) *SigmaReport { return cfd.AnalyzeSigma(cfds) }

// Wildcard is the unnamed variable '_' in pattern tableaux.
const Wildcard = cfd.Wildcard

// Partitioning.
type (
	// Horizontal is a horizontal partition (D1,…,Dn), Di = σFi(D).
	Horizontal = partition.Horizontal
	// Vertical is a vertical partition (D1,…,Dn), Di = πXi(D).
	Vertical = partition.Vertical
)

// Detection.
type (
	// Cluster is the set of sites the detection algorithms run on.
	Cluster = core.Cluster
	// SiteAPI is a single site's operation surface (local or remote).
	SiteAPI = core.SiteAPI
	// Site is the in-process SiteAPI implementation.
	Site = core.Site
	// Algorithm selects CTRDetect / PatDetectS / PatDetectRT.
	Algorithm = core.Algorithm
	// Result is the report of a Detect, DetectIncremental, DetectDelta or
	// DetectOne call (the full compiled set, or a single entry for
	// DetectOne).
	Result = core.Result
	// Generation reports a site's state after Detector.Apply: the
	// fragment generation (one per applied delta) and the new fragment
	// size.
	Generation = core.DeltaInfo
	// SigmaMode selects the compile-time Σ analysis level.
	SigmaMode = core.SigmaMode
	// FailurePolicy selects how a run responds to site failures
	// (FailFast, FailRetry, FailDegrade — see WithFailurePolicy).
	FailurePolicy = core.FailurePolicy
	// BreakerState is a per-site circuit-breaker state (see
	// Detector.HealthDetail).
	BreakerState = core.BreakerState
	// Drainer is the graceful-retirement surface of an
	// admission-controlled site: Drain finishes in-flight work and
	// rejects new work with the typed draining error. Obtain it by
	// type-asserting a cluster's Site.
	Drainer = core.Drainer
	// SiteHealth is one site's health snapshot (breaker state + drain
	// status; see Detector.HealthDetail).
	SiteHealth = core.SiteHealth
	// ShipmentReport is a run's shipment accounting (per-site-pair
	// shipment and control matrices plus totals), safe to read and
	// render without synchronization.
	ShipmentReport = dist.Report
)

// Algorithms of Section IV-B.
const (
	// CTRDetect ships all relevant tuples to a single coordinator.
	CTRDetect = core.CTRDetect
	// PatDetectS uses per-pattern coordinators minimizing shipment.
	PatDetectS = core.PatDetectS
	// PatDetectRT uses per-pattern coordinators minimizing modeled
	// response time.
	PatDetectRT = core.PatDetectRT
)

// Failure policies for WithFailurePolicy.
const (
	// FailFast surfaces the first site failure (the default).
	FailFast = core.FailFast
	// FailRetry retries transient failures with backoff and redial;
	// violations and shipment figures stay byte-identical to a
	// fault-free run.
	FailRetry = core.FailRetry
	// FailDegrade is FailRetry plus exclusion: a site down after the
	// retry budget is dropped and the run completes over the reachable
	// fragments, reported via Result.Partial/ExcludedSites/Coverage.
	FailDegrade = core.FailDegrade
)

// Circuit-breaker states reported by Detector.HealthDetail.
const (
	// BreakerClosed passes calls through (healthy).
	BreakerClosed = core.BreakerClosed
	// BreakerOpen rejects calls after repeated transient failures.
	BreakerOpen = core.BreakerOpen
	// BreakerHalfOpen admits a single probe to test recovery.
	BreakerHalfOpen = core.BreakerHalfOpen
)

// Σ analysis levels for WithSigmaAnalysis.
const (
	// SigmaOff compiles the rule set as given (the default).
	SigmaOff = core.SigmaOff
	// SigmaCheck fails compilation fast on an inconsistent Σ with a
	// witness-bearing *InconsistentError.
	SigmaCheck = core.SigmaCheck
)

// NewSchema builds a schema; key attributes are optional.
func NewSchema(name string, attrs []string, key ...string) (*Schema, error) {
	return relation.NewSchema(name, attrs, key...)
}

// NewRelation creates an empty relation over the schema.
func NewRelation(s *Schema) *Relation { return relation.New(s) }

// ReadCSV loads a relation from CSV (header row = attribute names).
func ReadCSV(r io.Reader, name string, key ...string) (*Relation, error) {
	return relation.ReadCSV(r, name, key...)
}

// WriteCSV writes a relation as CSV with a header row.
func WriteCSV(w io.Writer, rel *Relation) error { return relation.WriteCSV(w, rel) }

// ParseCFD parses one CFD in the rule syntax, e.g.
// `r1: [CC, zip] -> [street] : (44, _ || _)`.
func ParseCFD(s string) (*CFD, error) { return cfd.Parse(s) }

// ParseRules parses a rule file (one CFD per line, # comments).
func ParseRules(r io.Reader) ([]*CFD, error) { return cfd.ParseSet(r) }

// FormatCFD renders a CFD in the rule syntax.
func FormatCFD(c *CFD) string { return cfd.Format(c) }

// NewFD builds the CFD encoding a traditional FD X → Y.
func NewFD(name string, x, y []string) (*CFD, error) { return cfd.NewFD(name, x, y) }

// PartitionUniform splits a relation into n near-equal fragments
// (shuffled when seed ≥ 0).
func PartitionUniform(d *Relation, n int, seed int64) (*Horizontal, error) {
	return partition.Uniform(d, n, seed)
}

// PartitionByAttribute creates one fragment per distinct value of attr
// with predicates attr = v.
func PartitionByAttribute(d *Relation, attr string) (*Horizontal, error) {
	return partition.ByAttribute(d, attr)
}

// PartitionByPredicates splits a relation by fragment predicates;
// every tuple must satisfy exactly one.
func PartitionByPredicates(d *Relation, preds []Predicate) (*Horizontal, error) {
	return partition.ByPredicates(d, preds)
}

// PartitionVertical projects the relation onto attribute sets (the key
// is added to each fragment automatically).
func PartitionVertical(d *Relation, attrSets [][]string) (*Vertical, error) {
	return partition.VerticalByAttrs(d, attrSets)
}

// NewCluster builds an in-process cluster from a horizontal partition.
func NewCluster(h *Horizontal) (*Cluster, error) { return core.FromHorizontal(h) }

// NewRemoteCluster connects to cfdsite servers (position in addrs =
// site ID) and builds a cluster running over TCP.
func NewRemoteCluster(addrs []string) (*Cluster, error) {
	sites, schema, err := remote.Dial(addrs)
	if err != nil {
		return nil, err
	}
	return core.NewCluster(schema, sites)
}

// DetectCentral finds the violation patterns of a CFD in an
// unpartitioned relation (the SQL technique of [2]), honoring any
// functional options (algorithm, mining threshold).
// Callers detecting repeatedly should Compile over NewLocalCluster
// once instead of paying the session setup per call.
func DetectCentral(d *Relation, c *CFD, opts ...Option) (*Relation, error) {
	cl, err := NewLocalCluster(d)
	if err != nil {
		return nil, err
	}
	det, err := Compile(cl, []*CFD{c}, opts...)
	if err != nil {
		return nil, err
	}
	res, err := det.DetectOne(context.Background(), c.Name)
	if err != nil {
		return nil, err
	}
	return res.PerCFD[0], nil
}

// Vertical partitioning analysis (Section V).

// VerticalOptions configures vertical detection.
type VerticalOptions = vertical.Options

// VerticalResult reports a vertical detection run.
type VerticalResult = vertical.DetectResult

// Augmentation lists attributes added per fragment by a refinement.
type Augmentation = vertical.Augmentation

// DependencyPreserving reports whether the fragment attribute sets
// preserve Σ (Proposition 7: equivalent to every CFD being locally
// checkable on every instance).
func DependencyPreserving(cs []*CFD, fragments [][]string) bool {
	return vertical.Preserved(cfd.NormalizeSet(cs), fragments)
}

// MinimumRefinement finds a smallest augmentation making the partition
// dependency preserving (exact search; NP-hard per Theorem 8, so the
// candidate count is capped — use GreedyRefinement beyond it).
func MinimumRefinement(cs []*CFD, fragments [][]string, maxCandidates int) (Augmentation, error) {
	return vertical.ExactMinimumRefinement(cfd.NormalizeSet(cs), fragments, maxCandidates)
}

// GreedyRefinement finds a (not necessarily minimum) preserving
// augmentation greedily.
func GreedyRefinement(cs []*CFD, fragments [][]string) Augmentation {
	return vertical.GreedyRefinement(cfd.NormalizeSet(cs), fragments)
}

// DetectVertical finds Vioπ for CFDs over a vertical partition,
// shipping columns (optionally semijoin-reduced) as needed.
func DetectVertical(v *Vertical, cs []*CFD, opt VerticalOptions) (*VerticalResult, error) {
	return vertical.Detect(v, cs, opt)
}
