package engine_test

import (
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// BenchmarkIncrementalFold prices the incremental check on CUST rows:
// "seed" builds one state per rule and folds every row into it (rows/s
// counts rows × rules), "round" is a tracked fold of 600 tuples — 300
// live rows deleted and inserted back — that ends in Changes, as a
// coordinator's later round does. The rule sets are the incremental
// workload's, a 255-row tableau, and a constant-free two-attribute X.
func BenchmarkIncrementalFold(b *testing.B) {
	d := workload.Cust(workload.CustConfig{N: 100_000, Seed: 1})
	rulesets := []struct {
		name  string
		rules []*cfd.CFD
	}{
		{"k64+street", []*cfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()}},
		{"k255", []*cfd.CFD{workload.CustPatternCFD(255)}},
		{"street-city", []*cfd.CFD{cfd.MustParse(`sc: [street, city] -> [zip]`)}},
	}
	seed := func(b *testing.B, rules []*cfd.CFD) []*engine.IncrementalState {
		sts := make([]*engine.IncrementalState, len(rules))
		for i, c := range rules {
			st, err := engine.NewIncrementalState(d.Schema(), c, false)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.FoldRelation(d, true); err != nil {
				b.Fatal(err)
			}
			sts[i] = st
		}
		return sts
	}
	for _, rs := range rulesets {
		b.Run(rs.name+"/seed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seed(b, rs.rules)
			}
			b.ReportMetric(float64(b.N*d.Len()*len(rs.rules))/b.Elapsed().Seconds(), "rows/s")
		})
		b.Run(rs.name+"/round", func(b *testing.B) {
			sts := seed(b, rs.rules)
			outs := make([][2]*relation.Relation, len(rs.rules))
			for i, c := range rs.rules {
				ps, err := d.Schema().Project("viopi_"+c.Name, c.X)
				if err != nil {
					b.Fatal(err)
				}
				outs[i] = [2]*relation.Relation{relation.New(ps), relation.New(ps)}
				sts[i].TrackChanges()
			}
			rows := d.Tuples()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * 300 % (len(rows) - 300)
				for si, st := range sts {
					for _, t := range rows[lo : lo+300] {
						st.Delete(t)
					}
					for _, t := range rows[lo : lo+300] {
						st.Insert(t)
					}
					st.Changes(outs[si][0], outs[si][1])
				}
			}
		})
	}
}
