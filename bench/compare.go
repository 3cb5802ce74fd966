package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads a result file: a whole set, or a single run's record.
func loadRuns(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) > 0 {
		return set.Runs, nil
	}
	var one record
	if err := json.Unmarshal(b, &one); err != nil || one.Workload == "" {
		return nil, fmt.Errorf("%s: neither a result set nor a run record", path)
	}
	return []record{one}, nil
}

// spread is the distance between the first and third quartile as a
// share of the median (the range, below four values); 0 for one value.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / med
}

// verdict judges one (workload, metric) pair: base and change are the
// values of every run on each side.
//
//   - ok: the change's median is no worse than the base's by more than
//     the bound, or every run of the change reads better than every run
//     of the base.
//   - unresolved: either side's own runs spread wider than the bound,
//     so the pair cannot tell a regression from noise.
//   - regressed: worse by more than the bound, with both sides steady.
func verdict(base, change []float64, better string, bound float64) (string, float64) {
	mb, mc := median(base), median(change)
	var worse float64 // share of the base's median by which the change is worse
	if mb != 0 {
		worse = (mc - mb) / mb
		if better == "higher" {
			worse = -worse
		}
	} else if mc != mb {
		worse = 1
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if (better == "higher" && c <= b) || (better != "higher" && c >= b) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter || worse <= bound && spread(base) <= bound && spread(change) <= bound:
		return "ok", worse
	case spread(base) > bound || spread(change) > bound:
		return "unresolved", worse
	}
	return "regressed", worse
}

// compareFiles applies the bounds of the benchmark definition to two
// result files, base first, and reports whether any pair regressed. A
// failed operation on the change's side is a regression whatever the
// timings say. Per-layer metrics have no bound; those the change moved
// — counts at all, timings by more than a fifth — are listed for the
// reader, not judged.
func compareFiles(w io.Writer, specPath, basePath, changePath string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := loadRuns(basePath)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return false, err
	}
	values := func(runs []record, workload string, trace int, name string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tchange\tworse by\tbound\tspread base/change\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := values(base, wl.Name, 0, m.Name), values(change, wl.Name, 0, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, worse := verdict(b, c, m.Better, m.Bound)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.0f%%\t%.1f%% / %.1f%%\t%s\n",
				wl.Name, m.Name, median(b), m.Unit, median(c), m.Unit, 100*worse, 100*m.Bound,
				100*spread(b), 100*spread(c), v)
		}
		for _, r := range change {
			if r.Workload == wl.Name && r.Failed > 0 {
				regressed = true
				fmt.Fprintf(tw, "%s\tfailed operations\t\t%d of %d\t\t0\t\tregressed\n", wl.Name, r.Failed, r.Attempted)
			}
		}
		// An incremental run's answer depends on how many rounds it got
		// through, so only equal counts are comparable there.
		bd, bops := answer(base, wl.Name)
		cd, cops := answer(change, wl.Name)
		def := findWorkload(wl.Name)
		if bd != "" && cd != "" && bd != cd && (def == nil || !def.incr || bops == cops) {
			fmt.Fprintf(tw, "%s\tdigest\t%s\t%s\t\t\t\tdiffers (other seed or scale?)\n", wl.Name, bd, cd)
		}
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}
	fmt.Fprintln(w, "\nper-layer metrics that moved (counts by 0.5 %, timings by 20 %; not judged):")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range spec.Workloads {
		for _, m := range spec.PerLayer {
			b, c := values(base, wl.Name, 1, m.Name), values(change, wl.Name, 1, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			mb, mc := median(b), median(c)
			moved := 0.2
			if m.Unit == "count" || m.Unit == "B" {
				moved = 0.005
			}
			if mb == mc || (mb != 0 && math.Abs((mc-mb)/mb) <= moved) {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g %s\n", wl.Name, m.Name, mb, mc, m.Unit)
		}
	}
	return regressed, tw.Flush()
}

// answer returns what the untraced runs of a workload answered — the
// result digest and the operation count it was taken after — or an
// empty digest when the runs disagree among themselves or there are
// none.
func answer(runs []record, workload string) (digest string, ops int) {
	for _, r := range runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if digest != "" && (r.Digest != digest || r.Attempted != ops) {
			return "", 0
		}
		digest, ops = r.Digest, r.Attempted
	}
	return digest, ops
}
