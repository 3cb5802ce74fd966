package engine_test

import (
	"fmt"
	"testing"

	"distcfd/internal/engine"
	"distcfd/internal/workload"
)

// BenchmarkTableau prices one CFD's check as its tableau grows: the
// cust_k rule ([CC, AC, zip] → [city]) with 1, 16 and 64 patterns over
// 125 000 CUST rows, at one and two workers. The kernel groups the rows
// once per CFD whatever the tableau holds, so a pattern costs its
// dictionary lookups and its share of the row filter, not a rescan of
// the rows (DESIGN.md, "one grouping per tableau vs one per pattern").
func BenchmarkTableau(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 125_000, Seed: 1, ErrRate: 0.01})
	data.Encoded()
	for _, k := range []int{1, 16, 64} {
		c := workload.CustPatternCFD(k)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("patterns=%d/workers=%d", k, w), func(b *testing.B) {
				var kern engine.Kernel
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kern.ViolationPatterns(data, c, engine.Opts{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
