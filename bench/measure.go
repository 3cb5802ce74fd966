package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"distcfd"
)

// digest condenses what a run must get right: every CFD's violating
// pattern set, the shipped-tuple total and the modeled time. Two runs
// agree on all three exactly when their digests match.
func digest(res *distcfd.Result) string {
	h := sha256.New()
	for i, c := range res.CFDs {
		rows := make([]string, 0, res.PerCFD[i].Len())
		for _, t := range res.PerCFD[i].Tuples() {
			rows = append(rows, strings.Join(t, "\x1f"))
		}
		sort.Strings(rows)
		fmt.Fprintf(h, "%s %d\n", c.Name, len(rows))
		for _, r := range rows {
			io.WriteString(h, r)
			io.WriteString(h, "\n")
		}
	}
	fmt.Fprintf(h, "shipped=%d modeled=%s\n", res.ShippedTuples, strconv.FormatFloat(res.ModeledTime, 'g', -1, 64))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// counters is a snapshot of the process-wide costs an operation runs
// up: CPU, heap allocation, and bytes on the counted connections.
type counters struct {
	cpu             time.Duration
	mallocs, bytes  uint64
	wireIn, wireOut int64
}

func readCounters(wc *wireCounter) counters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		wireIn:  wc.in.Load(),
		wireOut: wc.out.Load(),
	}
}

func (c *counters) add(before, after counters) {
	c.cpu += after.cpu - before.cpu
	c.mallocs += after.mallocs - before.mallocs
	c.bytes += after.bytes - before.bytes
	c.wireIn += after.wireIn - before.wireIn
	c.wireOut += after.wireOut - before.wireOut
}

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current RSS (Linux clear_refs); elsewhere the mark stays the
// process's lifetime peak.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, or 0 where /proc does not exist.
func peakRSSMiB() float64 {
	st, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(st), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// loopResult is what one timed loop measured. Sums run over the timed
// operations only; verification between them is outside every counter.
type loopResult struct {
	walls     []float64 // seconds, one per operation
	windows   []opWindow
	sum       counters
	attempted int
	failed    int
	digest    string // of the last verified result
	firstErr  string

	// Exact per-run accounting from Result, summed over operations.
	shipped, deltaShipped                  int64
	modeledBytes, controlBytes, deltaBytes int64
	modeledTime                            float64
	pendingAfter                           int

	// Incremental rounds whose result awaits the mirror check.
	toVerify map[int]string
}

func (r *loopResult) wall() float64 {
	s := 0.0
	for _, w := range r.walls {
		s += w
	}
	return s
}

func (r *loopResult) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// verifyEvery is how often an incremental run's answer is checked
// against a fresh detection over the mirror (the last round always is).
const verifyEvery = 50

// runLoop runs operations closed-loop on one link: maxOps of them, or
// with maxOps 0 until their summed wall time reaches budget (at least
// one), or until an incremental run is out of pre-generated rounds.
// With a recorder the operations are numbered for the span attribution.
func (e *env) runLoop(ctx context.Context, l *link, budget time.Duration, maxOps int, rec *recorder) *loopResult {
	r := &loopResult{toVerify: make(map[int]string)}
	var elapsed time.Duration
	for {
		if maxOps > 0 && r.attempted == maxOps || maxOps == 0 && r.attempted > 0 && elapsed >= budget {
			break
		}
		if e.def.incr && e.applied == len(e.rounds) {
			break
		}
		if rec != nil {
			rec.op.Store(int64(r.attempted))
		}
		before := readCounters(l.counter)
		start := time.Now()
		res, err := e.op(ctx, l)
		end := time.Now()
		after := readCounters(l.counter)
		if rec != nil {
			rec.op.Store(-1)
			r.windows = append(r.windows, opWindow{Op: r.attempted, Start: rec.since(start), End: rec.since(end)})
		}
		r.attempted++
		r.sum.add(before, after)
		r.walls = append(r.walls, end.Sub(start).Seconds())
		elapsed += end.Sub(start)

		pending := e.pendingDeposits()
		r.pendingAfter += pending
		switch {
		case err != nil:
			r.fail("op %d: %v", r.attempted-1, err)
			continue
		case res.Partial:
			r.fail("op %d: partial result", r.attempted-1)
		case pending != 0:
			r.fail("op %d: %d pending deposits", r.attempted-1, pending)
		case e.def.incr:
			if e.applied%verifyEvery == 0 {
				r.toVerify[e.applied] = digest(res)
			}
			r.digest = digest(res)
		default:
			if r.digest = digest(res); r.digest != e.ref {
				r.fail("op %d: digest %s, reference %s", r.attempted-1, r.digest, e.ref)
			}
		}
		r.shipped += res.ShippedTuples
		r.deltaShipped += res.DeltaShippedTuples
		r.modeledBytes += res.Shipment.TotalBytes
		r.controlBytes += res.Shipment.ControlBytes
		r.deltaBytes += res.DeltaShippedBytes
		r.modeledTime += res.ModeledTime
	}
	if e.def.incr && r.digest != "" {
		r.toVerify[e.applied] = r.digest
	}
	return r
}

// op is the workload's one operation.
func (e *env) op(ctx context.Context, l *link) (*distcfd.Result, error) {
	if !e.def.incr {
		return l.det.Detect(ctx)
	}
	for i, d := range e.rounds[e.applied] {
		if _, err := l.det.Apply(ctx, i, d); err != nil {
			e.applied++ // the round is spent whether or not every site took it
			return nil, fmt.Errorf("apply at site %d: %w", i, err)
		}
	}
	e.applied++
	return l.det.DetectIncremental(ctx)
}

// verifyRounds replays the mirror and checks every recorded
// incremental result against a fresh Compile + Detect over it. It runs
// after the loop, so neither its time nor its memory is measured.
func (e *env) verifyRounds(ctx context.Context, r *loopResult) {
	rounds := make([]int, 0, len(r.toVerify))
	for round := range r.toVerify {
		rounds = append(rounds, round)
	}
	sort.Ints(rounds)
	for _, round := range rounds {
		e.mirrorTo(round)
		want, err := e.reference(ctx)
		if err != nil {
			r.fail("verify after round %d: %v", round, err)
			return
		}
		if got := r.toVerify[round]; got != want {
			r.fail("after round %d: digest %s, reference %s", round, got, want)
		}
	}
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail returns the highest of p75/p90/p95 that still has at least ten
// samples beyond it, and which percentile that was (0 with too few
// samples for any).
func tail(vals []float64) (value float64, pct int) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	for _, p := range []int{95, 90, 75} {
		if float64(len(s))*float64(100-p)/100 >= 10 {
			return quantile(s, float64(p)/100), p
		}
	}
	return 0, 0
}
