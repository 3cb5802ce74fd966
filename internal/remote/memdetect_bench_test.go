package remote

import (
	"context"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// The two benchmarks below are the repository benchmark's TCP
// workloads in miniature, so a CPU or memory profile of either path
// needs no edit to the benchmark program (DESIGN.md ablation 25). The
// sites and the driver share the process, so a profile holds both
// halves of every call, set-up included:
//
//	go test ./internal/remote -run '^$' -bench MemDetectRPC -benchtime 40x -cpuprofile cpu.out -o remote.test
//	go tool pprof -top remote.test cpu.out
//	go test ./internal/remote -run '^$' -bench MemDetectRPC -benchtime 40x -memprofile mem.out -memprofilerate 65536 -o remote.test
//	go tool pprof -sample_index=alloc_space -top remote.test mem.out
//
// and the same with -bench StoreIncrementalRPC -benchtime 1000x.

// BenchmarkMemDetectRPC is multi-mem-tcp: one compiled PatDetectRT
// Detect, with as many workers as GOMAXPROCS, over four in-memory sites
// holding 5·10⁴ CUST tuples (partition.Uniform, seed 7), under that
// workload's six disjoint-LHS rules, after one warm-up Detect.
// Shipments cross the sockets in the row and dict+ID forms, so
// values-section decode, dictionary interning and the collector show
// at their end-to-end weight.
func BenchmarkMemDetectRPC(b *testing.B) {
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: 50_000, Seed: 42, ErrRate: 0.01})
	h, err := partition.Uniform(data, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	apis := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		apis[i] = core.NewSite(i, frag, h.Predicates[i])
	}
	rules := []*cfd.CFD{
		workload.CustPatternCFD(255),
		cfd.MustParse(`i1: [CC, title] -> [price]`),
		cfd.MustParse(`i2: [name] -> [phn]`),
		cfd.MustParse(`i3: [AC, phn] -> [street]`),
		cfd.MustParse(`i4: [street, city] -> [zip]`),
		cfd.MustParse(`i5: [qty, price] -> [title]`),
	}
	plan, err := core.CompileSet(ctx, loopbackCluster(b, h.Schema, apis), rules, core.PatDetectRT,
		core.Options{Workers: runtime.GOMAXPROCS(0)}, true)
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
}

// BenchmarkStoreIncrementalRPC is incr-store-tcp: an operation applies
// one delta at each of four colstore sites holding 5·10⁴ CUST tuples
// round-robin — six inserts of fresh CUST rows (5 % erroneous) and six
// deletes of random live rows, 0.1 % of the data a round, as the
// workload changes it — and runs one DetectIncremental under its two
// rules (CustPatternCFD(64) and CustStreetCFD, PatDetectS), after the
// seed round.
func BenchmarkStoreIncrementalRPC(b *testing.B) {
	const sites, n, perSite = 4, 50_000, 6
	ctx := context.Background()
	data := workload.Cust(workload.CustConfig{N: n, Seed: 42, ErrRate: 0.01})
	apis := make([]core.SiteAPI, sites)
	lens := make([]int, sites) // a round inserts as many rows as it deletes
	for i := range apis {
		frag := relation.New(data.Schema())
		for k := i; k < data.Len(); k += sites {
			frag.MustAppend(data.Tuple(k))
		}
		dir := b.TempDir()
		if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
			b.Fatal(err)
		}
		s, err := core.OpenStoreSite(i, dir, relation.True())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		apis[i], lens[i] = s, frag.Len()
	}
	rules := []*cfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()}
	plan, err := core.CompileSet(ctx, loopbackCluster(b, data.Schema(), apis), rules, core.PatDetectS, core.Options{}, true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := plan.DetectIncremental(ctx); err != nil {
		b.Fatal(err)
	}
	var fresh []relation.Tuple
	cfg := workload.CustConfig{N: (b.N + 1) * sites * perSite, Seed: 43, ErrRate: 0.05}
	if err := workload.CustStream(cfg, func(t relation.Tuple) error {
		t[0] = strconv.Itoa(1<<30 + len(fresh)) // clear of the base ids
		fresh = append(fresh, t)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := range sites {
			d := relation.Delta{Inserts: fresh[:perSite:perSite]}
			fresh = fresh[perSite:]
			for len(d.Deletes) < perSite {
				if k := rng.Intn(lens[i]); !slices.Contains(d.Deletes, k) {
					d.Deletes = append(d.Deletes, k)
				}
			}
			if _, err := plan.Apply(ctx, i, d); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := plan.DetectIncremental(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// loopbackCluster serves each of apis on a loopback listener through
// ServeAPIContext, dials them and returns the cluster of proxies, which
// the benchmark's cleanup hangs up before it stops the servers.
func loopbackCluster(b *testing.B, schema *relation.Schema, apis []core.SiteAPI) *core.Cluster {
	ctx, cancel := context.WithCancel(context.Background())
	var served sync.WaitGroup
	addrs := make([]string, len(apis))
	for i, api := range apis {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		served.Add(1)
		go func() {
			defer served.Done()
			_ = ServeAPIContext(ctx, lis, api, schema)
		}()
	}
	proxies, _, err := Dial(addrs)
	b.Cleanup(func() {
		for _, p := range proxies {
			p.(io.Closer).Close()
		}
		cancel()
		served.Wait()
	})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.NewCluster(schema, proxies)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}
