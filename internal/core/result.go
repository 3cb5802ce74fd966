package core

import (
	"fmt"
	"runtime"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// Algorithm selects a single-CFD detection algorithm of Section IV-B.
type Algorithm int

const (
	// CTRDetect ships all relevant tuples to one coordinator chosen by
	// total matching count (the central/naive approach).
	CTRDetect Algorithm = iota
	// PatDetectS designates a coordinator per pattern tuple, minimizing
	// total data shipment.
	PatDetectS
	// PatDetectRT designates a coordinator per pattern tuple with the
	// greedy response-time heuristic.
	PatDetectRT
)

func (a Algorithm) String() string {
	switch a {
	case CTRDetect:
		return "CTRDetect"
	case PatDetectS:
		return "PatDetectS"
	case PatDetectRT:
		return "PatDetectRT"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options tune a detection run.
type Options struct {
	// MineTheta, when positive, enables the Section IV-B mining
	// preprocessing for CFDs whose variable patterns are all-wildcard
	// (traditional FDs): each site mines closed frequent LHS patterns
	// with support ≥ MineTheta·|Di|, and σ partitions on the merged
	// patterns plus a catch-all wildcard row.
	MineTheta float64
	// Workers bounds how many independent units (CFD clusters) a run
	// overlaps; 0 selects runtime.GOMAXPROCS(0), 1 runs them one at a
	// time. Row sharding inside a check is the checking site's own
	// (Site.SetDetectParallelism).
	Workers int
	// Sigma selects the compile-time Σ analysis level: SigmaOff (the
	// zero value) compiles the rule set as given; SigmaCheck fails
	// compilation fast on an inconsistent Σ with a witness-bearing
	// error and keeps the analysis report on the plan.
	Sigma SigmaMode
	// Failure selects how the run responds to site failures: FailFast
	// (the zero value) aborts on the first error, FailRetry absorbs
	// transient failures with bounded retries, FailDegrade additionally
	// completes over the reachable fragments (see FailurePolicy).
	Failure FailurePolicy
	// NoPackedShip disables the packed shipping form: extracted batches
	// drop any attached packed payload before shipping, so they travel
	// (and are billed by dist.RelationBytes) in the row or dict+ID
	// form. Violations, ShippedTuples, and ModeledTime are
	// byte-identical either way — packing changes only the byte
	// accounting and the wire encoding — which the equivalence tests pin.
	NoPackedShip bool
}

// costModel is the response-time model every run is billed under.
var costModel = dist.DefaultCostModel()

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// UnitReport is the per-unit detail of a run: one entry per plan unit
// (a set of ≥1 CFDs sharing one σ-partitioning), aligned with
// Result.Clusters.
type UnitReport struct {
	// Spec is the σ-partitioning used for the unit's variable part (nil
	// when every member is constant-only and was checked locally).
	Spec *BlockSpec
	// Coordinators holds the coordinator site per block (-1 = empty
	// block, no coordinator needed). For CTRDetect all entries agree.
	Coordinators []int
	// CheckSizes[i] = |D'_i| = |Di| + tuples received by site i.
	CheckSizes []int
	// MinedPatterns counts pattern tuples contributed by the mining
	// preprocessing (0 when mining was off or not applicable).
	MinedPatterns int
	// LocalOnly reports that no shipment was needed (Proposition 5
	// and/or Fi ∧ Fφ pruning).
	LocalOnly bool
}

// Result reports one detection run over a compiled CFD set; a single
// CFD is a set of one. It is the one result type of the module: the
// public facade re-exports it as distcfd.Result.
type Result struct {
	// CFDs are the dependencies checked.
	CFDs []*cfd.CFD
	// PerCFD holds Vioπ(φ,D) per CFD as distinct X-tuples, aligned with
	// CFDs.
	PerCFD []*relation.Relation
	// Shipment is the run's shipment accounting (per-site-pair shipment
	// and control matrices plus totals), snapshotted once when the run
	// completes and safe to read and render without synchronization.
	Shipment dist.Report
	// ShippedTuples is the total |M| across all CFDs.
	ShippedTuples int64
	// ModeledTime is cost(D, Σ, M) under dist.DefaultCostModel(), summed
	// over the units.
	ModeledTime float64
	// WallTime is the measured wall-clock of the whole run.
	WallTime time.Duration
	// Clusters lists the CFD index groups processed together — one
	// group per CFD when compiled without clustering.
	Clusters [][]int
	// Units is the per-unit detail, aligned with Clusters.
	Units []UnitReport
	// Incremental marks a DetectIncremental run. Its ShippedTuples,
	// ModeledTime and the regular tuple matrices of Shipment
	// then report the modeled full-recompute equivalent — identical to
	// what a fresh Detect on the same data would report, so serving-mode
	// changes never bend the figures — while DeltaShippedTuples and
	// DeltaShippedBytes (and the delta matrices) count what the round
	// actually put on the wire: the changed tuples only. Payload bytes
	// exist only for data that is materialized, so on incremental runs
	// the regular Bytes matrices stay zero and byte accounting lives
	// entirely on the delta channel.
	Incremental        bool
	DeltaShippedTuples int64
	DeltaShippedBytes  int64
	// Partial marks a degraded run (FailDegrade): one or more sites
	// stayed down after retries and were excluded, so the result covers
	// only the reachable fragments. Every reported violation is still a
	// true violation of the reachable data; violations only witnessed by
	// excluded fragments are missing.
	Partial bool
	// ExcludedSites lists the excluded sites (nil when complete).
	ExcludedSites []int
	// Coverage is the fraction of tuples the run examined: 1 on a
	// complete run, reachable/total on a degraded one.
	Coverage float64
	// Retries / Faults total the fault channel: retried site calls and
	// failed attempts. Zero on fault-free runs — retry work is charged
	// here and to Shipment's fault channels, never to ShippedTuples or
	// ModeledTime, so under FailRetry every other field is byte-identical
	// to a fault-free run's.
	Retries int64
	Faults  int64
}

// Patterns returns the violating X-patterns of the named CFD, or nil
// when the run did not include it.
func (r *Result) Patterns(name string) *relation.Relation {
	for i, c := range r.CFDs {
		if c.Name == name {
			return r.PerCFD[i]
		}
	}
	return nil
}

// mergeDistinct unions X-tuple relations into a fresh relation with
// the given schema, dropping duplicates, preserving first-seen order.
// Nil parts (sites that contributed nothing) are skipped.
func mergeDistinct(schema *relation.Schema, parts []*relation.Relation) *relation.Relation {
	out := relation.New(schema)
	all := make([]int, schema.Arity())
	for i := range all {
		all[i] = i
	}
	seen := map[string]struct{}{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, t := range p.Tuples() {
			k := t.Key(all)
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out.MustAppend(t)
			}
		}
	}
	return out
}
