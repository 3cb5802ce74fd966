// An external test package: workload imports partition, which imports
// engine.
package engine_test

import (
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// BenchmarkAblationEncoding is DESIGN.md ablation 8, in two tiers.
// The micro tier compares hash-group-by keys built from raw strings
// against dictionary-interned IDs on a relation encoded from scratch
// every iteration. The detect tier compares the full check(D, Σ)
// primitive end to end: engine.DetectSetRows (the row-oriented
// string-key reference) against engine.Kernel.DetectSet (the columnar
// dictionary-encoded default; its per-column vectors are cached on the
// relation, as in the real pipeline).
func BenchmarkAblationEncoding(b *testing.B) {
	data := workload.Cust(workload.CustConfig{N: 50_000, Seed: 1, ErrRate: 0.01})
	idx, err := data.Schema().Indices([]string{"CC", "AC", "zip"})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("string-keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			groups := make(map[string][]int, 1024)
			for ti, t := range data.Tuples() {
				k := t.Key(idx)
				groups[k] = append(groups[k], ti)
			}
		}
	})
	b.Run("dict-encoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dict := relation.NewDict()
			groups := make(map[[3]uint32][]int, 1024)
			for ti, t := range data.Tuples() {
				var key [3]uint32
				for j, c := range idx {
					key[j] = dict.ID(t[c])
				}
				groups[key] = append(groups[key], ti)
			}
		}
	})
	rules := []*cfd.CFD{
		workload.CustPatternCFD(64),
		workload.CustStreetCFD(),
		cfd.MustParse(`a1: [street, city] -> [zip]`),
	}
	b.Run("detect-row-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.DetectSetRows(data, rules); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detect-encoded", func(b *testing.B) {
		var kern engine.Kernel
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kern.DetectSet(data, rules, engine.Opts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
