package core_test

import (
	"context"
	"runtime"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// BenchmarkStoreDetect is the repository benchmark's fold-store-inproc
// path in miniature: one compiled PatDetectS Detect over an in-process
// cluster of four colstore sites holding ≈ 50 K CUST tuples round-robin,
// under its two constant-free rules, after a warm-up Detect has paid the
// σ-routing and page-in. Every store-site stage runs — routing lookups,
// block extract and pack, pricing, deposit and merge, the fold kernel —
// so a CPU profile of it shows their shares without touching bench/:
//
//	go test ./internal/core -run '^$' -bench StoreDetect -cpuprofile cpu.out
//	go tool pprof -top cpu.out
func BenchmarkStoreDetect(b *testing.B) {
	ctx := context.Background()
	const sites = 4
	data := workload.Cust(workload.CustConfig{N: 50_000, Seed: 42, ErrRate: 0.01})
	frags := make([]*relation.Relation, sites)
	for i := range frags {
		frags[i] = relation.New(data.Schema())
	}
	for i, t := range data.Tuples() {
		frags[i%sites].MustAppend(t)
	}
	apis := make([]core.SiteAPI, sites)
	for i, frag := range frags {
		dir := b.TempDir()
		if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
			b.Fatal(err)
		}
		s, err := core.OpenStoreSite(i, dir, relation.True())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		apis[i] = s
	}
	cl, err := core.NewCluster(data.Schema(), apis)
	if err != nil {
		b.Fatal(err)
	}
	rules := []*cfd.CFD{cfd.MustParse(`f1: [street, city] -> [zip]`), cfd.MustParse(`f2: [CC, AC] -> [city]`)}
	plan, err := core.CompileSet(ctx, cl, rules, core.PatDetectS, core.Options{Workers: runtime.GOMAXPROCS(0)}, true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := plan.Detect(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := plan.Detect(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(data.Len())*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}
