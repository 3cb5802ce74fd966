// Genome cross-reference auditing: the paper's Exp-4 scenario. A
// cross-reference table is fragmented by reference type across
// curation sites, and the rule to check is a traditional FD — whose
// all-wildcard pattern would normally force every tuple to a single
// coordinator. Mining closed frequent LHS patterns per site
// (Section IV-B) restores a fine σ-partitioning and slashes shipment.
package main

import (
	"context"
	"fmt"
	"log"

	"distcfd"
	"distcfd/internal/workload"
)

func main() {
	// Human-only cross-references, fragmented by curation batch — a
	// layout strongly (but imperfectly) correlated with external_db.
	data := workload.XRefHuman(60_000, 3)
	part, err := distcfd.PartitionByAttribute(data, "source")
	if err != nil {
		log.Fatal(err)
	}
	// Treat the fragment predicates as unknown, as the experiment does,
	// so the mining effect is isolated from predicate pruning.
	part.Predicates = nil
	cluster, err := distcfd.NewCluster(part)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("XREF: %d tuples across %d type-partitioned sites\n", data.Len(), part.N())

	rule := workload.XRefMiningFD()
	fmt.Printf("rule: %s (a traditional FD)\n\n", distcfd.FormatCFD(rule))

	// Mining is part of compilation: each θ's session mines the sites
	// once at Compile, and every subsequent Detect reuses the mined
	// σ-partitioning — the serving pattern for an always-on auditor.
	// θ = 0 compiles without mining.
	ctx := context.Background()
	detect := func(theta float64) *distcfd.Result {
		det, err := distcfd.Compile(cluster, []*distcfd.CFD{rule},
			distcfd.WithAlgorithm(distcfd.PatDetectS),
			distcfd.WithMineTheta(theta))
		if err != nil {
			log.Fatal(err)
		}
		res, err := det.Detect(ctx)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := detect(0)
	fmt.Printf("without mining: %7d tuples shipped, %d violating patterns\n",
		base.ShippedTuples, base.PerCFD[0].Len())

	for _, theta := range []float64{0.01, 0.2, 0.5, 0.9} {
		res := detect(theta)
		if res.PerCFD[0].Len() != base.PerCFD[0].Len() {
			log.Fatalf("mining changed the answer at θ=%.2f", theta)
		}
		saved := float64(base.ShippedTuples-res.ShippedTuples) / float64(base.ShippedTuples) * 100
		fmt.Printf("mining θ=%.2f:  %7d tuples shipped (%4.0f%% saved)\n",
			theta, res.ShippedTuples, saved)
	}
}
