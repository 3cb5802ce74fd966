package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// testScale keeps the workloads' shape — four sites, the same rules,
// sockets and store directories — at a hundredth of the data.
const testScale = 0.01

func testConfig(t *testing.T, seconds float64, trace int) config {
	dir := t.TempDir()
	return config{seed: 42, seconds: seconds, trace: trace, scale: testScale, out: dir, tmp: filepath.Join(dir, "tmp")}
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own
// tables equal: same workloads, same metrics in the same order, same
// units and directions.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the program", kind, i, m, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload, untraced and traced, and checks that
// each metric BENCHMARK.json names comes out with its unit, that no
// operation failed, that nothing was left pending at a site, that the
// layer shares add up, and that the predicted bypasses hold.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			e2e, err := runUntraced(ctx, newPlan(def, testConfig(t, 0.2, 0)), 1)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := runTraced(ctx, newPlan(def, testConfig(t, 0.4, 1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				rec   *record
				names []specMetric
			}{{e2e, spec.EndToEnd}, {layers, spec.PerLayer}} {
				if !run.rec.Correct || run.rec.Failed != 0 || run.rec.Attempted == 0 {
					t.Errorf("trace=%d: %d of %d operations failed: %s", run.rec.Trace, run.rec.Failed, run.rec.Attempted, run.rec.FirstError)
				}
				if len(run.rec.Metrics) != len(run.names) {
					t.Errorf("trace=%d: %d metrics emitted, BENCHMARK.json names %d", run.rec.Trace, len(run.rec.Metrics), len(run.names))
				}
				for _, m := range run.names {
					got, ok := run.rec.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%d: metric %s: emitted %+v (present %v), want unit %s", run.rec.Trace, m.Name, got, ok, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("trace=%d: metric %s is %v", run.rec.Trace, m.Name, got.Value)
					}
				}
			}
			for _, m := range spec.EndToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the driver needs it above 0", m.Name, e2e.Metrics[m.Name].Value)
				}
			}
			v := func(name string) float64 { return layers.Metrics[name].Value }
			if v("failed_ops_share") != 0 || v("core.pending_deposits_after") != 0 {
				t.Errorf("failed_ops_share %v, core.pending_deposits_after %v", v("failed_ops_share"), v("core.pending_deposits_after"))
			}
			if lo, hi := layers.ShareSums[0], layers.ShareSums[1]; lo < 0.999 || hi > 1.001 {
				t.Errorf("layer shares sum to %.4f–%.4f of the operation", lo, hi)
			}
			if e2e.Digest == "" || (!def.incr && e2e.Digest != layers.Digest) {
				t.Errorf("digests: untraced %q, traced run %q", e2e.Digest, layers.Digest)
			}
			// The bypasses each workload exists for.
			zero := func(names ...string) {
				for _, n := range names {
					if v(n) != 0 {
						t.Errorf("%s = %v on %s, predicted 0", n, v(n), def.name)
					}
				}
			}
			if !def.tcp {
				zero("remote.rpc_overhead_s", "remote.calls_per_op", "remote.bytes_in_per_op", "remote.to_wire_s", "remote.gob_decode_s")
			} else if v("remote.rpc_overhead_s") <= 0 || v("remote.bytes_out_per_op") <= 0 {
				t.Errorf("remote did nothing on a tcp workload")
			}
			if !def.store {
				zero("colstore.read_column_rows_per_s", "colstore.decode_chunk_mb_per_s", "colstore.open_s", "engine.fold_packed_rows_per_s")
			}
			if !def.incr {
				zero("core.apply_delta_s", "core.extract_delta_s", "core.fold_detect_s", "dist.delta_bytes_per_op", "colstore.wal_fsyncs_per_op")
			} else if v("core.apply_delta_s") <= 0 || v("colstore.wal_fsyncs_per_op") != numSites {
				t.Errorf("apply_delta_s %v, wal_fsyncs_per_op %v", v("core.apply_delta_s"), v("colstore.wal_fsyncs_per_op"))
			}
		})
	}
}

// TestDeterminism runs each tcp workload twice over the same fixed
// number of operations: the answers repeat exactly, the allocations
// within a hundredth, and the bytes on the wire within a thousandth:
// concurrent phases draw their task numbers in racing order, and a key
// one digit longer costs a byte in every message that carries it. The
// subtests share the process-wide allocation counters, so they do not
// run in parallel.
func TestDeterminism(t *testing.T) {
	ctx := context.Background()
	const ops = 20
	for i := range workloads {
		def := &workloads[i]
		if !def.tcp {
			continue
		}
		t.Run(def.name, func(t *testing.T) {
			var recs [2]*record
			for k := range recs {
				p := newPlan(def, testConfig(t, 0, 0))
				p.ops, p.rounds = ops, ops
				var err error
				if recs[k], err = runUntraced(ctx, p, 1); err != nil {
					t.Fatal(err)
				}
				if recs[k].Failed != 0 || recs[k].Attempted != ops {
					t.Fatalf("run %d: %d of %d failed: %s", k, recs[k].Failed, recs[k].Attempted, recs[k].FirstError)
				}
			}
			a, b := recs[0], recs[1]
			if a.Digest != b.Digest {
				t.Errorf("digests %s and %s", a.Digest, b.Digest)
			}
			if wa, wb := a.Metrics["wire_bytes_per_op"].Value, b.Metrics["wire_bytes_per_op"].Value; math.Abs(wa-wb) > 1e-3*wa {
				t.Errorf("wire_bytes_per_op %v and %v", wa, wb)
			}
			if aa, ab := a.Metrics["allocs_per_op"].Value, b.Metrics["allocs_per_op"].Value; math.Abs(aa-ab) > 0.01*aa {
				t.Errorf("allocs_per_op %v and %v differ by more than 1%%", aa, ab)
			}
		})
	}
}

// TestTracingIsTransparent runs the same operations through an
// untraced and a span-wrapped serving path onto the same sites: same
// answers (digest covers patterns, ShippedTuples and ModeledTime), same
// bytes on the wire (to the task counters' digits, as in
// TestDeterminism).
func TestTracingIsTransparent(t *testing.T) {
	ctx := context.Background()
	const ops = 5
	for i := range workloads {
		def := &workloads[i]
		if def.incr {
			continue // its rounds differ by construction; TestSmoke checks every traced round against the mirror
		}
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			e, err := newPlan(def, testConfig(t, 0, 1)).setUp(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			plain := e.runLoop(ctx, e.link, 0, ops, nil)

			rec := newRecorder()
			tl, err := e.connect(rec)
			if err != nil {
				t.Fatal(err)
			}
			defer tl.close()
			if err := warmUp(ctx, e, tl); err != nil {
				t.Fatal(err)
			}
			wrapped := e.runLoop(ctx, tl, 0, ops, rec)

			for _, r := range []*loopResult{plain, wrapped} {
				if r.failed != 0 || r.attempted != ops {
					t.Fatalf("%d of %d failed: %s", r.failed, r.attempted, r.firstErr)
				}
			}
			if plain.digest != wrapped.digest || plain.shipped != wrapped.shipped || plain.modeledTime != wrapped.modeledTime {
				t.Errorf("untraced: digest %s shipped %d modeled %v; traced: %s, %d, %v",
					plain.digest, plain.shipped, plain.modeledTime, wrapped.digest, wrapped.shipped, wrapped.modeledTime)
			}
			if p, w := wireBytesPerOp(e, plain), wireBytesPerOp(e, wrapped); math.Abs(p-w) > 1e-3*p {
				t.Errorf("wire_bytes_per_op %v untraced, %v traced", p, w)
			}
			spans, _ := rec.snapshot()
			sums := tracedMetrics(e, spans, wrapped, make(map[string]float64))
			if len(sums) != ops || sums[0] < 0.999 || sums[len(sums)-1] > 1.001 {
				t.Errorf("per-op share sums %v", sums)
			}
		})
	}
}

// TestCompare drives -compare over hand-made result files and a
// definition with bounds of its own, so that retuning BENCHMARK.json
// does not move the cases.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := writeJSON(spec, benchmarkSpec{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "bulk-store-tcp"}},
		EndToEnd: []specMetric{
			{Name: "op_wall_s_p50", Unit: "s", Better: "lower", Bound: 0.10},
			{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01},
		},
	}); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, walls, wire []float64, failed int) string {
		var set runSet
		for i := range walls {
			set.Runs = append(set.Runs, record{
				Workload: "bulk-store-tcp", Digest: "d", Attempted: 10, Failed: failed,
				Metrics: map[string]metric{
					"op_wall_s_p50":     {walls[i], "s"},
					"wire_bytes_per_op": {wire[i], "B"},
				},
			})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	bytes1 := []float64{1000, 1000, 1000, 1000}
	base := mk("base.json", steady, bytes1, 0)
	cases := []struct {
		name      string
		change    string
		regressed bool
		want      []string // substrings of the row for op_wall_s_p50 / wire_bytes_per_op
	}{
		{"same", mk("same.json", steady, bytes1, 0), false, []string{"op_wall_s_p50", "ok"}},
		{"slower", mk("slow.json", []float64{1.2, 1.21, 1.19, 1.2}, bytes1, 0), true, []string{"op_wall_s_p50", "regressed"}},
		{"noisy", mk("noisy.json", []float64{0.8, 1.5, 1.0, 1.3}, bytes1, 0), false, []string{"op_wall_s_p50", "unresolved"}},
		{"faster everywhere", mk("fast.json", []float64{0.5, 0.9, 0.6, 0.7}, bytes1, 0), false, []string{"op_wall_s_p50", "ok"}},
		{"more bytes", mk("bytes.json", steady, []float64{1020, 1020, 1020, 1020}, 0), true, []string{"wire_bytes_per_op", "regressed"}},
		{"failures", mk("failed.json", steady, bytes1, 1), true, []string{"failed operations", "regressed"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			regressed, err := compareFiles(&out, spec, base, tc.change)
			if err != nil {
				t.Fatal(err)
			}
			if regressed != tc.regressed {
				t.Errorf("regressed = %v, want %v\n%s", regressed, tc.regressed, out.String())
			}
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, tc.want[0]) && strings.Contains(line, tc.want[1]) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %q row reading %q in:\n%s", tc.want[0], tc.want[1], out.String())
			}
		})
	}
}
