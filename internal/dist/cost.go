package dist

import (
	"distcfd/internal/engine"
)

// CostModel is the response-time model cost(D, Σ, M) of Section IV-B:
// shipping happens at every site in parallel, so a plan's network time
// is driven by the busiest sender, and the coordinators then check
// their blocks in parallel, so detection time is driven by the largest
// check. Every detection run is billed under DefaultCostModel().
type CostModel struct {
	// Latency is a fixed network setup cost charged once per detection
	// phase that ships anything (connection/round-trip overhead). It is
	// independent of the assignment, so it never changes which plan the
	// greedy PatDetectRT heuristic prefers.
	Latency float64
	// TransferRate is the shipment bandwidth in tuples per time unit.
	// Non-positive rates disable the transfer term (shipping is free).
	TransferRate float64
	// CheckWeight converts engine.CheckCost work units into time units,
	// weighting local detection against shipment.
	CheckWeight float64
}

// DefaultCostModel returns the calibration used by the experiment
// harness: transfer of a thousand tuples costs as much as one unit of
// latency, and local checking is three orders of magnitude cheaper per
// tuple·log(tuple) than shipment per tuple — the regime of the paper's
// cluster, where network time dominates until shipment is optimized
// away.
func DefaultCostModel() CostModel {
	return CostModel{
		Latency:      1,
		TransferRate: 1000,
		CheckWeight:  0.001,
	}
}

// PlanResponseTime evaluates the model on a hypothetical plan:
// candSent[i] is the number of tuples site i would ship and
// checkSizes[i] = |D'_i| the number of tuples it would check. This is
// the objective the PatDetectRT greedy minimizes while extending a
// partial coordinator assignment.
func (cm CostModel) PlanResponseTime(candSent []int64, checkSizes []int) float64 {
	var maxSent int64
	for _, s := range candSent {
		if s > maxSent {
			maxSent = s
		}
	}
	t := 0.0
	if maxSent > 0 {
		t = cm.Latency
		if cm.TransferRate > 0 {
			t += float64(maxSent) / cm.TransferRate
		}
	}
	maxCheck := 0.0
	for _, n := range checkSizes {
		if c := engine.CheckCost(n); c > maxCheck {
			maxCheck = c
		}
	}
	return t + cm.CheckWeight*maxCheck
}

// ResponseTime evaluates the model on the shipments a run actually
// recorded. Control-plane traffic is accounted in m but not charged,
// matching the paper's treatment of statistics exchange as negligible.
func (cm CostModel) ResponseTime(m *Metrics, checkSizes []int) float64 {
	return cm.PlanResponseTime(m.SentBySite(), checkSizes)
}
