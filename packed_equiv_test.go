package distcfd

// Equivalence of packed σ-block shipping (the wire-v6 payload form)
// against the v5 dict+ID form, in process: disabling packed shipping
// (Options.NoPackedShip) may change ONLY the byte accounting. The
// violation patterns, shipped-tuple totals, and modeled time — the
// paper's |M| cost model bills tuples, not bytes — must stay
// byte-identical, across plain, incremental, and degraded runs.

import (
	"context"
	"fmt"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/faulty"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

var packedEquivRetry = core.RetryPolicy{BaseDelay: 50_000, MaxDelay: 500_000} // 50µs, 500µs

// outOfCoreRules is the CUST rule pair the store-backed suites detect
// with: one σ-partitioned variable CFD and the street rule.
func outOfCoreRules() []*cfd.CFD {
	return []*cfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()}
}

// openStoreSites persists each fragment into its own store directory
// and opens store-backed sites over them — the configuration whose
// extracts carry packed providers.
func openStoreSites(t *testing.T, h *partition.Horizontal) []core.SiteAPI {
	t.Helper()
	sites := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		dir := t.TempDir()
		if _, err := colstore.WriteRelationDir(dir, frag); err != nil {
			t.Fatal(err)
		}
		s, err := core.OpenStoreSite(i, dir, relation.True())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		sites[i] = s
	}
	return sites
}

// assertSameDetection pins the full equivalence contract between a
// packed-shipping run over store sites and its control (NoPackedShip,
// or the same fragments held in memory).
func assertSameDetection(t *testing.T, tag string, packed, plain *core.Result) {
	t.Helper()
	for ci := range plain.PerCFD {
		g, w := packed.PerCFD[ci], plain.PerCFD[ci]
		if g.Len() != w.Len() {
			t.Fatalf("%s: cfd %d: %d violation patterns packed, %d plain", tag, ci, g.Len(), w.Len())
		}
		for i, tup := range w.Tuples() {
			if !tup.Equal(g.Tuple(i)) {
				t.Fatalf("%s: cfd %d: pattern %d differs: packed %v, plain %v", tag, ci, i, g.Tuple(i), tup)
			}
		}
	}
	if packed.ShippedTuples != plain.ShippedTuples {
		t.Errorf("%s: ShippedTuples packed %d, plain %d", tag, packed.ShippedTuples, plain.ShippedTuples)
	}
	if packed.ModeledTime != plain.ModeledTime {
		t.Errorf("%s: ModeledTime packed %v, plain %v", tag, packed.ModeledTime, plain.ModeledTime)
	}
}

// TestOutOfCoreDetectEquivalence: the same CUST instance partitioned
// across three sites, once in memory and once as store directories,
// must produce byte-identical violation patterns (in order), shipment
// totals and modeled time.
func TestOutOfCoreDetectEquivalence(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 20_000, Seed: 42, ErrRate: 0.01})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	memSites := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		memSites[i] = core.NewSite(i, frag, relation.True())
	}
	detect := func(sites []core.SiteAPI) *core.Result {
		cl, err := core.NewCluster(h.Schema, sites)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.DetectOnce(context.Background(), cl, outOfCoreRules(), core.PatDetectS, core.Options{Workers: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	assertSameDetection(t, "store vs memory", detect(openStoreSites(t, h)), detect(memSites))
}

// TestPackedShipEquivalence: a clustered run over store-backed sites
// with packed shipping must match its v5-form control exactly and
// ship strictly fewer modeled bytes.
func TestPackedShipEquivalence(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 20_000, Seed: 42, ErrRate: 0.01})
	h, err := partition.Uniform(data, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sites := openStoreSites(t, h)
	rules := outOfCoreRules()
	run := func(opt core.Options) *core.Result {
		cl, err := core.NewCluster(h.Schema, sites)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectS, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Anchor: one worker, v5 shipping. Every (workers, ship) combination
	// must reproduce it exactly — packed deposits route through the
	// serial chunk-streaming kernel, so the worker budget is the other
	// axis that must not show through.
	plain := run(core.Options{Workers: 1, NoPackedShip: true})
	var pb, vb int64
	for _, workers := range []int{1, 2, 4} {
		packed := run(core.Options{Workers: workers})
		assertSameDetection(t, fmt.Sprintf("workers=%d", workers), packed, plain)
		pb = packed.Metrics.TotalBytes()
		vb = run(core.Options{Workers: workers, NoPackedShip: true}).Metrics.TotalBytes()
		if pb >= vb {
			t.Errorf("workers=%d: packed run modeled %d shipped bytes, plain %d — packed should be strictly smaller",
				workers, pb, vb)
		}
	}
	t.Logf("shipped bytes: packed %d, plain %d (%.2fx)", pb, vb, float64(pb)/float64(vb))
}

// TestPackedShipEquivalenceIncremental drives the same delta sequence
// through two independent store clusters (the WAL mutates on-disk
// state, so the runs cannot share directories), one shipping packed
// and one not: the seed round and every delta round must agree on
// everything but bytes. Delta batches never carry packed payloads —
// a mutated fragment is no longer a pure base view — so the delta
// rounds' byte accounting must be equal, not merely no larger.
func TestPackedShipEquivalenceIncremental(t *testing.T) {
	const rounds = 3
	data := workload.Cust(workload.CustConfig{N: 9_000, Seed: 17, ErrRate: 0.02})
	h, err := partition.Uniform(data, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One delta sequence, generated once, replayed into both clusters.
	streams := workload.SplitStreams(h.Fragments,
		workload.DeltaConfig{Seed: 5, Inserts: 40, Updates: 25, Deletes: 15, ErrRate: 0.05},
		func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
			return workload.CustDeltaStream(f, c)
		})
	deltas := make([]map[int]relation.Delta, rounds)
	for r := range deltas {
		m := make(map[int]relation.Delta, len(streams))
		for i, ds := range streams {
			m[i] = ds.Next()
		}
		deltas[r] = m
	}

	ctx := context.Background()
	rules := outOfCoreRules()
	run := func(opt core.Options) []*core.Result {
		sites := openStoreSites(t, h)
		cl, err := core.NewCluster(h.Schema, sites)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.CompileSet(ctx, cl, rules, core.PatDetectRT, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := p.DetectIncremental(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := []*core.Result{seed}
		for _, m := range deltas {
			res, err := p.DetectDelta(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}

	packed := run(core.Options{})
	plain := run(core.Options{NoPackedShip: true})
	for r := range plain {
		tag := "seed"
		if r > 0 {
			tag = "delta round"
		}
		assertSameDetection(t, tag, packed[r], plain[r])
		if packed[r].DeltaShippedTuples != plain[r].DeltaShippedTuples {
			t.Errorf("round %d: DeltaShippedTuples packed %d, plain %d",
				r, packed[r].DeltaShippedTuples, plain[r].DeltaShippedTuples)
		}
		if r > 0 && packed[r].DeltaShippedBytes != plain[r].DeltaShippedBytes {
			t.Errorf("round %d: DeltaShippedBytes packed %d, plain %d — delta batches ship unpacked either way",
				r, packed[r].DeltaShippedBytes, plain[r].DeltaShippedBytes)
		}
	}
}

// TestPackedShipEquivalenceDegraded holds one store site down for good
// under FailDegrade: the packed and plain runs see the same fault
// sequence (faults key on the call sequence, which packing does not
// change), so the partial results must match exactly — exclusions,
// coverage, and patterns.
func TestPackedShipEquivalenceDegraded(t *testing.T) {
	const down = 1
	data := workload.Cust(workload.CustConfig{N: 6_000, Seed: 9, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rules := outOfCoreRules()
	run := func(opt core.Options) *core.Result {
		sites := openStoreSites(t, h)
		sites[down] = faulty.Wrap(sites[down], faulty.Plan{CrashAt: 1})
		cl, err := core.NewCluster(h.Schema, sites)
		if err != nil {
			t.Fatal(err)
		}
		opt.Failure = core.FailDegrade
		opt.Retry = packedEquivRetry
		opt.Workers = 1
		res, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectS, opt, true)
		if err != nil {
			t.Fatalf("degraded run failed outright: %v", err)
		}
		return res
	}
	packed := run(core.Options{})
	plain := run(core.Options{NoPackedShip: true})
	if !packed.Partial || !plain.Partial {
		t.Fatalf("runs over a dead site must report Partial (packed %v, plain %v)", packed.Partial, plain.Partial)
	}
	if len(packed.ExcludedSites) != 1 || packed.ExcludedSites[0] != down ||
		len(plain.ExcludedSites) != 1 || plain.ExcludedSites[0] != down {
		t.Fatalf("ExcludedSites packed %v, plain %v, want [%d]", packed.ExcludedSites, plain.ExcludedSites, down)
	}
	if packed.Coverage != plain.Coverage {
		t.Errorf("Coverage packed %v, plain %v", packed.Coverage, plain.Coverage)
	}
	assertSameDetection(t, "degraded", packed, plain)
	if pb, vb := packed.Metrics.TotalBytes(), plain.Metrics.TotalBytes(); pb > vb {
		t.Errorf("degraded packed run modeled %d shipped bytes, plain %d", pb, vb)
	}
}
