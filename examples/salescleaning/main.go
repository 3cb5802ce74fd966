// Sales-records cleaning: the scenario motivating the paper's Exp-5/6 —
// a retailer's order table is range-partitioned across regional data
// centers, and the data-quality team maintains several address rules
// whose LHS attributes overlap. The example contrasts the paper's two
// §IV-C strategies: sequential (one CFD at a time, tuples re-shipped
// per CFD) and clustered (overlapping CFDs merged, tuples shipped once
// per cluster).
package main

import (
	"context"
	"fmt"
	"log"

	"distcfd"
	"distcfd/internal/workload"
)

func main() {
	// 40K synthetic sales records with 2% injected inconsistencies.
	data := workload.Cust(workload.CustConfig{N: 40_000, Seed: 7, ErrRate: 0.02})
	fmt.Printf("CUST: %d tuples × %d attributes\n", data.Len(), data.Schema().Arity())

	// Two overlapping rules (LHS containment):
	//   r1: (CC, AC, zip) → city   with 255 patterns
	//   r2: (CC, AC)      → city   with 128 patterns
	rules := workload.CustOverlappingCFDs(255, 128)
	for _, r := range rules {
		fmt.Printf("  rule %s: %d LHS attrs, %d patterns\n", r.Name, len(r.X), len(r.Tp))
	}

	for _, sites := range []int{2, 4, 8} {
		part, err := distcfd.PartitionUniform(data, sites, 1)
		if err != nil {
			log.Fatal(err)
		}
		cluster, err := distcfd.NewCluster(part)
		if err != nil {
			log.Fatal(err)
		}
		seq, clu := detect(cluster, rules, false), detect(cluster, rules, true)
		saved := float64(seq.ShippedTuples-clu.ShippedTuples) / float64(seq.ShippedTuples) * 100
		fmt.Printf("\n%d sites:\n", sites)
		fmt.Printf("  sequential: %7d tuples shipped, modeled time %7.3f\n",
			seq.ShippedTuples, seq.ModeledTime)
		fmt.Printf("  clustered:  %7d tuples shipped, modeled time %7.3f  (%.0f%% less traffic)\n",
			clu.ShippedTuples, clu.ModeledTime, saved)
		for i, r := range rules {
			if !seq.PerCFD[i].SameTuples(clu.PerCFD[i]) {
				log.Fatalf("algorithms disagree on %s", r.Name)
			}
		}
		fmt.Printf("  both found the same %d + %d violating patterns\n",
			seq.PerCFD[0].Len(), seq.PerCFD[1].Len())
	}
}

func detect(cluster *distcfd.Cluster, rules []*distcfd.CFD, clustered bool) *distcfd.Result {
	det, err := distcfd.Compile(cluster, rules, distcfd.WithClustering(clustered))
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Detect(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res
}
