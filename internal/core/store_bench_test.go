package core_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// BenchmarkStoreDetect is the repository benchmark's fold-store-inproc
// path in miniature: one compiled PatDetectS Detect over an in-process
// cluster of four colstore sites holding CUST tuples round-robin —
// ≈ 50 K, and 5·10⁵, fold-store-inproc's own size at -scale 0.25 —
// under its two constant-free rules, after a warm-up Detect has paid
// the σ-routing and page-in. Every store-site stage runs — routing
// lookups, block extract and pack, pricing, deposit and merge, the fold
// kernel — so a profile of it shows their shares without touching
// bench/ (DESIGN.md, "Where a store Detect's time and bytes go"):
//
//	go test ./internal/core -run '^$' -bench 'StoreDetect/tuples=500000' -cpuprofile cpu.out
//	go tool pprof -top cpu.out
func BenchmarkStoreDetect(b *testing.B) {
	for _, n := range []int{50_000, 500_000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			plan := storeDetectPlan(b, n, foldRules())
			b.ReportAllocs()
			for b.Loop() {
				if _, err := plan.Detect(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkStoreDetectBulk is bulk-store-tcp's Detect without the
// sockets: BenchmarkStoreDetect's four colstore sites over 5·10⁵ CUST
// tuples, under that workload's rules (CustPatternCFD(64) and
// CustStreetCFD). It reports the modeled bytes a Detect ships
// (Result.Shipment.TotalBytes, the benchmark's dist.modeled_bytes_per_op)
// beside its time. Its in-use heap profile attributes what the
// workload's sites hold (DESIGN.md, ablations 23 and 24):
//
//	go test ./internal/core -run '^$' -bench StoreDetectBulk -benchtime 30x -memprofile mem.out -memprofilerate 65536
//	go tool pprof -sample_index=inuse_space -top mem.out
func BenchmarkStoreDetectBulk(b *testing.B) {
	plan := storeDetectPlan(b, 500_000, []*cfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()})
	b.ReportAllocs()
	var shipped int64
	for b.Loop() {
		res, err := plan.Detect(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		shipped += res.Shipment.TotalBytes
	}
	b.ReportMetric(float64(shipped)/float64(b.N), "shipped-B/op")
}

// foldRules are fold-store-inproc's two constant-free rules.
func foldRules() []*cfd.CFD {
	return []*cfd.CFD{cfd.MustParse(`f1: [street, city] -> [zip]`), cfd.MustParse(`f2: [CC, AC] -> [city]`)}
}

// storeDetectPlan builds BenchmarkStoreDetect's cluster over n tuples,
// compiles rules and runs the warm-up Detect.
func storeDetectPlan(tb testing.TB, n int, rules []*cfd.CFD) *core.Plan {
	ctx := context.Background()
	const sites = 4
	data := workload.Cust(workload.CustConfig{N: n, Seed: 42, ErrRate: 0.01})
	frags := make([]*relation.Relation, sites)
	for i := range frags {
		frags[i] = relation.New(data.Schema())
	}
	for i, t := range data.Tuples() {
		frags[i%sites].MustAppend(t)
	}
	apis := make([]core.SiteAPI, sites)
	for i, frag := range frags {
		dir := tb.TempDir()
		if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
			tb.Fatal(err)
		}
		s, err := core.OpenStoreSite(i, dir, relation.True())
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { s.Close() })
		apis[i] = s
	}
	cl, err := core.NewCluster(data.Schema(), apis)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := core.CompileSet(ctx, cl, rules, core.PatDetectS, core.Options{Workers: runtime.GOMAXPROCS(0)}, true)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := plan.Detect(ctx); err != nil {
		tb.Fatal(err)
	}
	return plan
}

// storeDetectBytesPerTuple is what a warm store Detect allocates per
// tuple at 5·10⁴ tuples, measured, when no site materializes a block it
// ships or copies one it checks: what is left is per-call bookkeeping.
const storeDetectBytesPerTuple = 2.5

// TestStoreDetectAllocRatchet holds that line: a warm in-process store
// Detect allocates at most 1.5× storeDetectBytesPerTuple a tuple. A
// store site that materializes a shipped block's columns again, or
// copies its own block before checking it, allocates 4 B a projected
// cell and fails it. The collector is off while it measures, so no
// pool is emptied mid-run, and the figure is the least of three
// windows, so a window in which the scheduler left a pooled scratch on
// another P does not count; a -race build drops pooled items at random
// and is not measured.
func TestStoreDetectAllocRatchet(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 5·10⁴-tuple store cluster; measures pooled allocation")
	}
	const n, runs = 50_000, 5
	plan := storeDetectPlan(t, n, foldRules())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	detect := func() {
		if _, err := plan.Detect(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * runs { // the first runs fill the pools
		detect()
	}
	perTuple := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			detect()
		}
		runtime.ReadMemStats(&after)
		perTuple = min(perTuple, float64(after.TotalAlloc-before.TotalAlloc)/runs/n)
	}
	if perTuple > 1.5*storeDetectBytesPerTuple {
		t.Fatalf("a warm store Detect allocated %.1f B a tuple, over 1.5× the %.1f B this path allocates", perTuple, storeDetectBytesPerTuple)
	}
	t.Logf("%.2f B a tuple", perTuple)
}
