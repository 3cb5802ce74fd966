package core

import (
	"fmt"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// Compile-time Σ analysis (Fan et al., TODS 2008, via cfd.AnalyzeSigma):
// CompileSet can reject an inconsistent rule set before a single tuple
// ships, and can collapse duplicate CFDs — identical up to their name —
// so the duplicate's mining, routing, and shipment work happens once.
// Pruning is equivalence-pinned: the collapsed CFD's violations,
// ShippedTuples, and ModeledTime are exactly what the unpruned plan
// would report (see Plan.fillAliases); only the control plane, which
// records work that actually happened, gets smaller.

// SigmaMode selects the compile-time Σ analysis level.
type SigmaMode int

const (
	// SigmaOff compiles Σ as given (the default).
	SigmaOff SigmaMode = iota
	// SigmaCheck runs the static analysis: CompileSet fails fast with
	// a witness-bearing *cfd.InconsistentError when Σ is inconsistent,
	// and the full report (implied units, irreducible cover, duplicate
	// groups) is retained on the plan for inspection.
	SigmaCheck
	// SigmaPrune is SigmaCheck plus duplicate collapse: on unclustered
	// plans, CFDs identical up to their name compile to one unit; the
	// copies are served as aliases with identical violations and
	// pinned accounting. Clustered plans already share the σ work
	// across a duplicate group, so SigmaPrune only checks and reports
	// there (see analyzeSigma).
	SigmaPrune
)

func (m SigmaMode) String() string {
	switch m {
	case SigmaOff:
		return "SigmaOff"
	case SigmaCheck:
		return "SigmaCheck"
	case SigmaPrune:
		return "SigmaPrune"
	default:
		return fmt.Sprintf("SigmaMode(%d)", int(m))
	}
}

// sigmaAlias is one CFD index CompileSet pruned as a duplicate: its
// results are served from the representative's unit.
type sigmaAlias struct {
	idx    int              // the pruned CFD's index in the compiled set
	rep    int              // the representative's index (first of the group)
	schema *relation.Schema // the alias's own Vioπ pattern schema
}

// analyzeSigma runs the Σ analysis per mode. It returns the report
// (nil under SigmaOff), the active CFD indices to compile, and the
// pruned aliases (both trivial unless SigmaPrune finds duplicates).
//
// Duplicate collapse applies only to unclustered plans, where every
// duplicate is otherwise its own full unit (mining, σ spec, pipeline).
// Clustered plans keep their duplicates: LHS-containment clustering
// already shares the σ work across the group, and removing a member
// can flip a 2-member cluster into a singleton — a different compile
// path (SpecFromCFD + mining instead of the cluster's projected spec)
// with genuinely different routing, breaking the pinned-accounting
// contract. The report still lists the groups either way.
func analyzeSigma(cl *Cluster, cfds []*cfd.CFD, mode SigmaMode, clustered bool) (*cfd.SigmaReport, []int, []sigmaAlias, error) {
	all := make([]int, len(cfds))
	for i := range cfds {
		all[i] = i
	}
	if mode == SigmaOff {
		return nil, all, nil, nil
	}
	report := cfd.AnalyzeSigma(cfds)
	if report.Witness != nil {
		return nil, nil, nil, &cfd.InconsistentError{Witness: report.Witness}
	}
	if mode != SigmaPrune || clustered || len(report.Duplicates) == 0 {
		return report, all, nil, nil
	}
	repOf := map[int]int{}
	for _, g := range report.Duplicates {
		for _, i := range g[1:] {
			repOf[i] = g[0]
		}
	}
	var active []int
	var aliases []sigmaAlias
	for i, c := range cfds {
		rep, pruned := repOf[i]
		if !pruned {
			active = append(active, i)
			continue
		}
		ps, err := cl.schema.Project("viopi_"+c.Name, c.X)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: cfd %s: %w", c.Name, err)
		}
		aliases = append(aliases, sigmaAlias{idx: i, rep: rep, schema: ps})
	}
	return report, active, aliases, nil
}

// unitOf returns the index of the plan unit processing CFD idx, or -1
// for a pruned alias.
func (p *Plan) unitOf(idx int) int {
	for gi, members := range p.clusters {
		for _, m := range members {
			if m == idx {
				return gi
			}
		}
	}
	return -1
}

// fillAliases completes a run's result for the CFDs CompileSet pruned
// as duplicates. The alias's violations are the representative's,
// rebuilt under the alias's own pattern schema. Accounting is pinned
// to the unpruned plan: the representative's data-plane metrics are
// replayed once per alias (dist.Metrics.MergeData, which leaves the
// control plane alone, so pruned plans report strictly fewer control
// bytes). Pruning happens only on unclustered plans (see
// analyzeSigma), so every representative is a singleton unit whose
// metrics are exactly what the duplicate's own unit would have
// recorded; the guard below is belt and suspenders.
func (p *Plan) fillAliases(res *Result, unitMetrics []*dist.Metrics) {
	for _, al := range p.aliases {
		rep := res.PerCFD[al.rep]
		out := relation.New(al.schema)
		for _, t := range rep.Tuples() {
			out.MustAppend(t)
		}
		res.PerCFD[al.idx] = out
		if gi := p.unitOf(al.rep); gi >= 0 && len(p.clusters[gi]) == 1 {
			res.Metrics.MergeData(unitMetrics[gi])
		}
	}
}

// modeledSum totals the per-unit modeled times in CFD-index order:
// each unit is charged at its first member's index, and each pruned
// alias of a singleton representative charges the representative's
// unit again at the alias's own index. This reproduces the unpruned
// plan's float addition order exactly, so a pruned plan's ModeledTime
// is byte-identical to the unpruned one's — equality the Σ-pruning
// equivalence tests check bit for bit.
func (p *Plan) modeledSum(unitModeled []float64) float64 {
	at := make([]float64, len(p.cfds))
	present := make([]bool, len(p.cfds))
	for gi, members := range p.clusters {
		at[members[0]] = unitModeled[gi]
		present[members[0]] = true
	}
	for _, al := range p.aliases {
		if gi := p.unitOf(al.rep); gi >= 0 && len(p.clusters[gi]) == 1 {
			at[al.idx] = unitModeled[gi]
			present[al.idx] = true
		}
	}
	sum := 0.0
	for i, ok := range present {
		if ok {
			sum += at[i]
		}
	}
	return sum
}
