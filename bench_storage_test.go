package distcfd

// Out-of-core storage benchmarks and the cluster-level equivalence
// test behind them: a site served from a packed colstore directory
// must detect byte-identically to one holding the same fragment in
// memory, and its check cost must stay linear in the fragment size
// while resident memory stays a small fraction of the raw data (the
// fragment file is mapped, not loaded; only the σ-assignment and the
// projected X-columns of touched blocks materialize).

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// outOfCoreRules is the CUST rule pair the storage benchmarks detect
// with: one σ-partitioned variable CFD and the street rule.
func outOfCoreRules() []*cfd.CFD {
	return []*cfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()}
}

// outOfCoreSites is the site count of the storage benchmarks: enough
// fan-out that σ-blocks actually ship between sites, so the
// packed-vs-v5 shipped-byte comparison measures real traffic.
const outOfCoreSites = 4

// BenchmarkOutOfCore streams a CUST instance round-robin into
// outOfCoreSites store directories (never materializing the relation),
// opens a site over each, and times full clustered detection at three
// sizes — n/4, n/2, n — so the per-tuple check cost's linearity is
// visible in one run; each size runs once with packed σ-block shipping
// (wire v6's payload form) and once forced to the v5 dict+ID form,
// with the modeled shipment volume reported as shipped-MB. The
// headline size is 10M tuples at DISTCFD_SCALE=1.0 (500K at the smoke
// default); `make bench-storage-full` runs the 10⁸-tuple point at
// DISTCFD_SCALE=10. Custom metrics report the store's footprint
// (disk-MB vs raw-MB) and the peak resident set across the detection
// loop (peak-RSS-MB, Linux VmHWM): the counter is reset after setup —
// generation necessarily holds the O(distinct) interning dictionaries,
// detection must not — so the metric is the out-of-core claim itself.
// Where the reset is unsupported the lifetime high-water mark is
// reported instead; BENCH_storage.json keeps the measured trajectory.
func BenchmarkOutOfCore(b *testing.B) {
	base := int(10_000_000 * benchConfig().Scale)
	for _, div := range []int{4, 2, 1} {
		n := base / div
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			dirs, stats := buildOutOfCoreDirs(b, n)
			b.Run("ship=packed", func(b *testing.B) {
				benchOutOfCore(b, dirs, stats, core.Options{Workers: 1})
			})
			b.Run("ship=v5", func(b *testing.B) {
				benchOutOfCore(b, dirs, stats, core.Options{Workers: 1, NoPackedShip: true})
			})
		})
	}
}

// buildOutOfCoreDirs streams n CUST tuples round-robin into one store
// directory per site, returning the directories and the summed store
// stats. The directories are shared by the ship= sub-benchmarks —
// detection never mutates them.
func buildOutOfCoreDirs(b *testing.B, n int) ([]string, colstore.Stats) {
	b.Helper()
	dirs := make([]string, outOfCoreSites)
	ws := make([]*colstore.Writer, outOfCoreSites)
	for i := range dirs {
		dirs[i] = b.TempDir()
		w, err := colstore.CreateDir(dirs[i], workload.CustSchema())
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		ws[i] = w
	}
	row := 0
	emit := func(t relation.Tuple) error {
		w := ws[row%outOfCoreSites]
		row++
		return w.Append(t)
	}
	if err := workload.CustStream(workload.CustConfig{N: n, Seed: 42, ErrRate: 0.01}, emit); err != nil {
		b.Fatal(err)
	}
	var total colstore.Stats
	for _, w := range ws {
		st, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		total.Rows += st.Rows
		total.BytesOnDisk += st.BytesOnDisk
		total.RawBytes += st.RawBytes
	}
	return dirs, total
}

func benchOutOfCore(b *testing.B, dirs []string, stats colstore.Stats, opt core.Options) {
	sites := make([]core.SiteAPI, len(dirs))
	for i, dir := range dirs {
		site, err := core.OpenStoreSite(i, dir, relation.True())
		if err != nil {
			b.Fatal(err)
		}
		defer site.Close()
		sites[i] = site
	}
	cl, err := core.NewCluster(workload.CustSchema(), sites)
	if err != nil {
		b.Fatal(err)
	}
	rules := outOfCoreRules()
	b.ReportAllocs()
	debug.FreeOSMemory()
	resetPeakRSS()
	// Detection runs under the out-of-core operating envelope: a soft
	// memory limit of raw/4, the bound a deployment bigger than RAM
	// would set via GOMEMLIMIT. Live detection state (σ-assignment,
	// block row lists, per-block scratch) sits well under it, so the
	// limit trims GC headroom rather than causing collection thrash;
	// peak-RSS-MB reports what detection actually kept resident. The
	// floor keeps the downsampled smoke sizes, whose raw/4 falls below
	// the runtime's own footprint, from measuring GC thrash instead.
	limit := int64(stats.RawBytes) / 4
	if limit < 64<<20 {
		limit = 64 << 20
	}
	prevLimit := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prevLimit)
	b.ResetTimer()
	var shipped int64
	for i := 0; i < b.N; i++ {
		res, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectS, opt, true)
		if err != nil {
			b.Fatal(err)
		}
		shipped = res.Metrics.TotalBytes()
	}
	b.StopTimer()
	b.ReportMetric(float64(shipped)/(1<<20), "shipped-MB")
	b.ReportMetric(float64(stats.BytesOnDisk)/(1<<20), "disk-MB")
	b.ReportMetric(float64(stats.RawBytes)/(1<<20), "raw-MB")
	if hwm := vmHWMBytes(); hwm > 0 {
		b.ReportMetric(hwm/(1<<20), "peak-RSS-MB")
	}
}

// resetPeakRSS resets the kernel's peak-resident-set high-water mark
// to the current RSS (Linux clear_refs); a no-op where unsupported.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// vmHWMBytes returns the process's peak resident set in bytes (Linux
// /proc VmHWM), or 0 where unavailable.
func vmHWMBytes() float64 {
	st, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(st), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// TestOutOfCoreDetectEquivalence is the benchmark's correctness
// anchor, at a downsampled size so it rides in tier-1 (and under
// -race via `make race`): the same CUST instance partitioned across
// three sites, once in memory and once as store directories, must
// produce byte-identical violation sets, shipment totals, and modeled
// time.
func TestOutOfCoreDetectEquivalence(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 20_000, Seed: 42, ErrRate: 0.01})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	storeSites := make([]core.SiteAPI, h.N())
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
		storeSites[i] = s
	}
	memSites := make([]core.SiteAPI, h.N())
	for i, frag := range h.Fragments {
		memSites[i] = core.NewSite(i, frag, relation.True())
	}

	rules := outOfCoreRules()
	detect := func(sites []core.SiteAPI) *core.Result {
		cl, err := core.NewCluster(h.Schema, sites)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectS, core.Options{Workers: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := detect(memSites)
	got := detect(storeSites)

	for ci := range want.PerCFD {
		g, w := got.PerCFD[ci], want.PerCFD[ci]
		if g.Len() != w.Len() {
			t.Fatalf("cfd %d: %d violation patterns from store sites, %d from memory", ci, g.Len(), w.Len())
		}
		for i, tup := range w.Tuples() {
			if !tup.Equal(g.Tuple(i)) {
				t.Fatalf("cfd %d: pattern %d differs: store %v, memory %v", ci, i, g.Tuple(i), tup)
			}
		}
	}
	if got.ShippedTuples != want.ShippedTuples {
		t.Errorf("store sites shipped %d tuples, memory shipped %d", got.ShippedTuples, want.ShippedTuples)
	}
	if got.ModeledTime != want.ModeledTime {
		t.Errorf("store modeled time %v, memory %v", got.ModeledTime, want.ModeledTime)
	}
}
