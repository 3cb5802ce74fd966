// Command bench is the repository's benchmark: four named workloads
// run closed-loop from one process against four sites, nine end-to-end
// figures per workload checked against a reference answer, and a
// separate traced run that splits each operation's wall time among the
// repository's layers by timing calls into their public functions from
// outside. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric with its unit and direction. The two
// tables below are the program's half of BENCHMARK.json; the smoke test
// holds them equal to the file.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_wall_s_p50", "s", "lower"},
	{"op_cpu_s", "s", "lower"},
	{"tuples_per_s", "tuples/s", "higher"},
	{"wire_bytes_per_op", "B", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb_per_op", "MiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_ops_share", "ratio", "lower"},
		{"api.driver_self_s", "s", "lower"},
		{"api.site_calls_per_op", "count", "lower"},
		{"api.compile_s", "s", "lower"},
		{"api.op_wall_s_tail", "s", "lower"},
		{"api.trace_overhead_share", "ratio", "lower"},
	}
	for _, g := range methodGroups {
		defs = append(defs,
			metricDef{"core." + g + "_s", "s", "lower"},
			metricDef{"core." + g + "_sum_s", "s", "lower"})
	}
	return append(defs, []metricDef{
		{"core.cold_detect_s", "s", "lower"},
		{"core.seed_round_s", "s", "lower"},
		{"core.assign_all_rows_per_s", "rows/s", "higher"},
		{"core.shipped_tuples_per_op", "count", "lower"},
		{"core.delta_shipped_tuples_per_op", "count", "lower"},
		{"core.pending_deposits_after", "count", "lower"},
		{"remote.rpc_overhead_s", "s", "lower"},
		{"remote.calls_per_op", "count", "lower"},
		{"remote.bytes_in_per_op", "B", "lower"},
		{"remote.bytes_out_per_op", "B", "lower"},
		{"remote.wire_amplification", "ratio", "lower"},
		{"remote.to_wire_s", "s", "lower"},
		{"remote.gob_encode_s", "s", "lower"},
		{"remote.gob_decode_s", "s", "lower"},
		{"remote.from_wire_s", "s", "lower"},
		{"remote.encoded_bytes", "B", "lower"},
		{"remote.dial_s", "s", "lower"},
		{"engine.fold_packed_rows_per_s", "rows/s", "higher"},
		{"engine.fold_columns_rows_per_s_w1", "rows/s", "higher"},
		{"engine.fold_columns_rows_per_s_wn", "rows/s", "higher"},
		{"engine.incr_fold_rows_per_s", "rows/s", "higher"},
		{"relation.apply_s", "s", "lower"},
		{"relation.project_rows_s", "s", "lower"},
		{"relation.concat_s", "s", "lower"},
		{"relation.from_columns_s", "s", "lower"},
		{"relation.from_packed_s", "s", "lower"},
		{"colstore.write_rows_per_s", "rows/s", "higher"},
		{"colstore.open_s", "s", "lower"},
		{"colstore.disk_bytes_per_raw_byte", "ratio", "lower"},
		{"colstore.encode_chunk_mb_per_s", "MiB/s", "higher"},
		{"colstore.decode_chunk_mb_per_s", "MiB/s", "higher"},
		{"colstore.read_column_rows_per_s", "rows/s", "higher"},
		{"colstore.wal_bytes_per_op", "B", "lower"},
		{"colstore.wal_fsyncs_per_op", "count", "lower"},
		{"dist.modeled_bytes_per_op", "B", "lower"},
		{"dist.control_bytes_per_op", "B", "lower"},
		{"dist.delta_bytes_per_op", "B", "lower"},
		{"dist.modeled_time", "s", "lower"},
		{"workload.gen_rows_per_s", "rows/s", "higher"},
	}...)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit gives every metric of defs its measured value, 0 where the
// workload does not reach the layer.
func emit(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// stamp says where and on what a result was measured.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Time       string  `json:"time"`
}

func newStamp(seed int64, scale float64) stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: kernel, Seed: seed, Scale: scale,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// record is one run of one workload: what the driver's result line
// says, plus what it has no room for.
type record struct {
	Workload   string            `json:"workload"`
	Trace      int               `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Tuples     int               `json:"tuples"`
	Samples    int               `json:"samples"`
	TailPct    int               `json:"tail_percentile,omitempty"`
	Digest     string            `json:"digest"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	ShareSums  [2]float64        `json:"share_sum_min_max,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Walls      []float64         `json:"op_wall_s"` // every timed operation of the untraced loop
	Stamp      stamp             `json:"stamp"`
}

// resultLine is the driver's contract: the last line of standard
// output, with exactly these keys.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSet is a file of records: what -compare reads.
type runSet struct {
	Stamp stamp    `json:"stamp"`
	Runs  []record `json:"runs"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	reps     int
	out      string
	tmp      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs a whole set: every workload, untraced and traced")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of operations to time; 0 runs each workload's fixed operation count")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics from an untraced loop; 1: per-layer metrics from a traced run")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies every workload's tuple count")
	flag.IntVar(&cfg.reps, "reps", 1, "whole-set mode: repetitions, interleaved across workloads")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for result files and Chrome traces")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "directory for the sites' store directories")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition -compare takes its bounds from")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	// The load comes from this one process; cap its runnable threads so
	// a bigger box measures the same shape.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	if cfg.workload == "" {
		if err := runWholeSet(cfg); err != nil {
			fatal(err)
		}
		return
	}
	def := findWorkload(cfg.workload)
	if def == nil {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	rec, err := runOne(context.Background(), def, cfg)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(recordPath(cfg, def.name, cfg.trace), rec); err != nil {
		fatal(err)
	}
	printRecord(os.Stdout, rec)
	line, err := json.Marshal(resultLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func recordPath(cfg config, workload string, trace int) string {
	return filepath.Join(cfg.out, fmt.Sprintf("run-%s-t%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median, and the last set-up is the one measured on.
const setupRepeats = 3

// runPlan is what a run's flags come to for one workload.
type runPlan struct {
	def    *workloadDef
	cfg    config
	n      int           // tuples
	nproc  int           // GOMAXPROCS: the full worker budget
	budget time.Duration // of timed operations; with ops > 0 the count decides instead
	ops    int           // fixed operation count of a -seconds 0 run
	rounds int           // incremental rounds to pre-generate
}

func newPlan(def *workloadDef, cfg config) runPlan {
	p := runPlan{
		def: def, cfg: cfg, n: int(float64(def.baseN) * cfg.scale), nproc: runtime.GOMAXPROCS(0),
		budget: time.Duration(cfg.seconds * float64(time.Second)), rounds: maxRounds,
	}
	if cfg.seconds == 0 {
		p.ops = def.fixedOps
		p.rounds = p.ops + p.tracedOps()
	}
	return p
}

// tracedOps is the traced loop's share of a fixed count: a fifth.
func (p runPlan) tracedOps() int {
	if p.ops == 0 {
		return 0
	}
	return max(p.ops/5, 1)
}

func (p runPlan) record() *record {
	return &record{
		Workload: p.def.name, Trace: p.cfg.trace, Seconds: p.cfg.seconds, Tuples: p.n,
		Stamp: newStamp(p.cfg.seed, p.cfg.scale),
	}
}

// runOne sets one workload up and measures it.
func runOne(ctx context.Context, def *workloadDef, cfg config) (*record, error) {
	if cfg.trace == 1 {
		return runTraced(ctx, newPlan(def, cfg))
	}
	return runUntraced(ctx, newPlan(def, cfg), setupRepeats)
}

// runUntraced is the end-to-end measurement: the workload is set up
// setups times, then the timed loop runs on the last set-up with
// nothing wrapped around anything.
func runUntraced(ctx context.Context, p runPlan, setups int) (*record, error) {
	var e *env
	took := make([]float64, setups)
	for i := range took {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = p.setUp(ctx, false); err != nil {
			return nil, err
		}
		took[i] = e.times.total.Seconds()
	}
	defer e.close()
	printSetup(e)
	debug.FreeOSMemory()
	resetPeakRSS()
	r := e.runLoop(ctx, e.link, p.budget, p.ops, nil)
	vals := map[string]float64{"peak_rss_mb": peakRSSMiB(), "setup_s": median(took)}
	if p.def.incr {
		e.verifyRounds(ctx, r)
	}
	endToEndMetrics(e, r, vals)
	rec := p.record()
	rec.fill(r)
	rec.Metrics = emit(endToEnd, vals)
	return rec, nil
}

// runTraced is the per-layer measurement: a shorter untraced loop for
// the exact counts, the tail and the p50 that tracing overhead is
// measured against; then a fifth as many operations through a second
// serving path whose sites are span-wrapped; then the direct calls.
func runTraced(ctx context.Context, p runPlan) (*record, error) {
	e, err := p.setUp(ctx, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	wal := walBytes(e)
	r0 := e.runLoop(ctx, e.link, p.budget/2, p.ops, nil)
	wal = walBytes(e) - wal
	if p.def.incr {
		e.verifyRounds(ctx, r0)
	}
	e.link.close()
	e.link = nil

	tr := newRecorder()
	tl, err := e.connect(tr)
	if err != nil {
		return nil, err
	}
	defer tl.close()
	if err := warmUp(ctx, e, tl); err != nil {
		return nil, err
	}
	r1 := e.runLoop(ctx, tl, p.budget/5, p.tracedOps(), tr)
	if p.def.incr {
		e.verifyRounds(ctx, r1)
	}

	vals := make(map[string]float64)
	layerMetrics(e, r0, r1, wal, vals)
	rec := p.record()
	spans, largest := tr.snapshot()
	if sums := tracedMetrics(e, spans, r1, vals); len(sums) > 0 {
		lo, hi := sums[0], sums[len(sums)-1]
		rec.ShareSums = [2]float64{lo, hi}
		if lo < 0.999 || hi > 1.001 {
			r1.fail("layer shares sum to %.4f–%.4f of the operation, want 1", lo, hi)
		}
	}
	if err := directMetrics(e, largest, vals); err != nil {
		return nil, fmt.Errorf("direct layer measurements: %w", err)
	}
	rec.TraceFile = filepath.Join(p.cfg.out, p.def.name+".trace.json")
	if err := writeChromeTrace(rec.TraceFile, rec.Stamp, r1.windows, spans); err != nil {
		return nil, err
	}

	_, rec.TailPct = tail(r0.walls)
	rec.fill(r0)
	rec.Attempted += r1.attempted
	rec.Failed += r1.failed
	rec.Correct = rec.Failed == 0
	if rec.FirstError == "" {
		rec.FirstError = r1.firstErr
	}
	vals["failed_ops_share"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.Metrics = emit(perLayer, vals)
	return rec, nil
}

// warmUp runs a fresh link's one untimed operation, as set-up does for
// the first link; for the incremental workload that is the new
// session's seeding round.
func warmUp(ctx context.Context, e *env, l *link) error {
	var err error
	if e.def.incr {
		_, err = l.det.DetectIncremental(ctx)
	} else {
		_, err = l.det.Detect(ctx)
	}
	if err != nil {
		return fmt.Errorf("warm-up on a new link: %w", err)
	}
	return nil
}

// printSetup breaks the last set-up down by stage, on standard error.
func printSetup(e *env) {
	t := e.times
	fmt.Fprintf(os.Stderr, "set-up %.3fs: generate %.3fs, store write %.3fs, open %.3fs, dial %.3fs, compile %.3fs, cold detect %.3fs, reference %.3fs, seed round %.3fs, delta rounds %.3fs\n",
		t.total.Seconds(), t.gen.Seconds(), t.write.Seconds(), t.open.Seconds(), t.dial.Seconds(), t.compile.Seconds(),
		t.cold.Seconds(), t.reference.Seconds(), t.seed.Seconds(), t.deltaGen.Seconds())
}

func (rec *record) fill(r *loopResult) {
	rec.Samples = len(r.walls)
	rec.Walls = r.walls
	rec.Digest = r.digest
	rec.Attempted = r.attempted
	rec.Failed = r.failed
	rec.Correct = r.failed == 0
	rec.FirstError = r.firstErr
}

// wireBytesPerOp is what crossed the sites' connections per operation.
// In-process there is no connection; the metric then reports the bytes
// the cost model bills for the same shipments, which no change to the
// wire can move.
func wireBytesPerOp(e *env, r *loopResult) float64 {
	ops := float64(r.attempted)
	if e.def.tcp {
		return float64(r.sum.wireIn+r.sum.wireOut) / ops
	}
	return float64(r.modeledBytes) / ops
}

func endToEndMetrics(e *env, r *loopResult, vals map[string]float64) {
	ops := float64(r.attempted)
	work := e.n
	if e.def.incr {
		work = e.changed
	}
	vals["op_wall_s_p50"] = median(r.walls)
	vals["op_cpu_s"] = r.sum.cpu.Seconds() / ops
	vals["tuples_per_s"] = float64(work) * ops / r.wall()
	vals["wire_bytes_per_op"] = wireBytesPerOp(e, r)
	vals["allocs_per_op"] = float64(r.sum.mallocs) / ops
	vals["alloc_mb_per_op"] = float64(r.sum.bytes) / ops / (1 << 20)
}

// layerMetrics fills the per-layer figures that come from set-up and
// from the two loops' exact accounting.
func layerMetrics(e *env, r0, r1 *loopResult, wal int64, vals map[string]float64) {
	ops := float64(r0.attempted)
	t := e.times
	vals["api.compile_s"] = t.compile.Seconds()
	vals["api.op_wall_s_tail"], _ = tail(r0.walls)
	vals["api.trace_overhead_share"] = median(r1.walls)/median(r0.walls) - 1
	vals["core.cold_detect_s"] = t.cold.Seconds()
	vals["core.seed_round_s"] = t.seed.Seconds()
	vals["core.shipped_tuples_per_op"] = float64(r0.shipped) / ops
	vals["core.delta_shipped_tuples_per_op"] = float64(r0.deltaShipped) / ops
	vals["core.pending_deposits_after"] = float64(r0.pendingAfter + r1.pendingAfter)
	vals["dist.modeled_bytes_per_op"] = float64(r0.modeledBytes) / ops
	vals["dist.control_bytes_per_op"] = float64(r0.controlBytes) / ops
	vals["dist.delta_bytes_per_op"] = float64(r0.deltaBytes) / ops
	vals["dist.modeled_time"] = r0.modeledTime / ops
	vals["workload.gen_rows_per_s"] = perSecond(e.n, t.gen.Seconds())
	if e.def.tcp {
		vals["remote.dial_s"] = t.dial.Seconds()
		vals["remote.bytes_in_per_op"] = float64(r0.sum.wireIn) / ops
		vals["remote.bytes_out_per_op"] = float64(r0.sum.wireOut) / ops
		// Against what the cost model bills: the full-recompute matrix
		// on a Detect, the delta channel on an incremental round.
		if billed := r0.modeledBytes + r0.deltaBytes; billed > 0 {
			vals["remote.wire_amplification"] = float64(r0.sum.wireIn+r0.sum.wireOut) / float64(billed)
		}
	}
	if e.def.store {
		vals["colstore.write_rows_per_s"] = perSecond(t.stats.Rows, t.write.Seconds())
		vals["colstore.open_s"] = t.open.Seconds()
		vals["colstore.disk_bytes_per_raw_byte"] = float64(t.stats.BytesOnDisk) / float64(t.stats.RawBytes)
		vals["colstore.wal_bytes_per_op"] = float64(wal) / ops
	}
}

func printRecord(w *os.File, rec *record) {
	fmt.Fprintf(w, "%s  trace=%d  seed=%d  scale=%g  tuples=%d  samples=%d  digest=%s  failed=%d/%d\n",
		rec.Workload, rec.Trace, rec.Stamp.Seed, rec.Stamp.Scale, rec.Tuples, rec.Samples, rec.Digest, rec.Failed, rec.Attempted)
	fmt.Fprintf(w, "  commit=%s %s cpus=%d gomaxprocs=%d kernel=%s\n",
		rec.Stamp.Commit, rec.Stamp.GoVersion, rec.Stamp.NumCPU, rec.Stamp.GOMAXPROCS, rec.Stamp.Kernel)
	if rec.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", rec.FirstError)
	}
	if rec.Trace == 1 {
		fmt.Fprintf(w, "  tail percentile: p%d   layer shares sum to %.4f–%.4f of each traced op   trace: %s\n",
			rec.TailPct, rec.ShareSums[0], rec.ShareSums[1], rec.TraceFile)
	}
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Metrics[d.name]
		fmt.Fprintf(w, "  %-36s %s %s (%s is better)\n", d.name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, d.better)
	}
}

// runWholeSet runs every workload untraced and traced, each in a
// process of its own so that heap and resident set start fresh exactly
// as they do under the driver, and writes the records to one file.
func runWholeSet(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Stamp: newStamp(cfg.seed, cfg.scale)}
	for rep := 0; rep < cfg.reps; rep++ {
		for _, def := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self,
					"-workload", def.name, "-seed", strconv.FormatInt(cfg.seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
					"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64), "-out", cfg.out, "-tmp", cfg.tmp)
				cmd.Stderr = os.Stderr
				start := time.Now()
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s trace=%d: %w", def.name, trace, err)
				}
				var rec record
				b, err := os.ReadFile(recordPath(cfg, def.name, trace))
				if err != nil {
					return err
				}
				if err := json.Unmarshal(b, &rec); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "[%d/%d] took %.1fs\n", rep+1, cfg.reps, time.Since(start).Seconds())
				printRecord(os.Stdout, &rec)
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	sort.SliceStable(set.Runs, func(i, j int) bool { return set.Runs[i].Workload < set.Runs[j].Workload })
	path := filepath.Join(cfg.out, fmt.Sprintf("set-%s-seed%d-%d.json", set.Stamp.Commit, cfg.seed, time.Now().Unix()))
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
