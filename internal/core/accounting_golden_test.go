package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/accounting.golden from the current code")

// TestAccountingGolden pins the complete observable accounting of the
// detection driver — violation patterns, ShippedTuples, the bit pattern
// of ModeledTime, per-unit coordinators / check sizes / mined-pattern
// counts, and the shipment and control matrix totals — for a fresh
// Detect and for a DetectIncremental served from retained state after a
// fixed delta trace. The file was generated by the two-path driver
// (a single-CFD plan beside the cluster plan) this package had before
// the one-unit driver, which must reproduce it byte for byte; the
// per-unit detail is recorded for the one-CFD modes only, the only ones
// for which that driver reported it.
func TestAccountingGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, ac := range accountingCases() {
		for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
			for _, mode := range accountingModes(ac.cfds) {
				label := fmt.Sprintf("%s algo=%v mode=%s", ac.name, algo, mode.name)
				cl, trace := ac.build(t)
				run := newAccountingRun(t, cl, mode.cfds, algo, ac.opt, mode.clustered, mode.alone)
				writeAccounting(&buf, label+" run=fresh", run.detect(t, false))
				// Seed the session, then serve every step from retained
				// state; the last round is the one recorded.
				last := run.detect(t, true)
				for step := 0; step < 3; step++ {
					for site, d := range trace(step) {
						if _, err := cl.Site(site).ApplyDelta(context.Background(), d, ""); err != nil {
							t.Fatalf("%s: step %d site %d: %v", label, step, site, err)
						}
					}
					last = run.detect(t, true)
				}
				writeAccounting(&buf, label+" run=incremental", last)
			}
		}
	}
	path := filepath.Join("testdata", "accounting.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("accounting diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("accounting diverges from %s: %d lines, want %d", path, len(got), len(exp))
	}
}

type accountingCase struct {
	name string
	cfds []*cfd.CFD
	opt  Options
	// build returns a fresh cluster and its deterministic delta trace.
	build func(t *testing.T) (*Cluster, func(step int) map[int]relation.Delta)
}

func accountingCases() []accountingCase {
	emp := func(t *testing.T) (*Cluster, func(int) map[int]relation.Delta) {
		cl := fig1bCluster(t)
		rng := rand.New(rand.NewSource(13))
		idSeq := 100
		return cl, func(int) map[int]relation.Delta { return randomEMPDeltas(rng, cl, true, &idSeq) }
	}
	streamed := func(d *relation.Relation, mk func(*relation.Relation, workload.DeltaConfig) *workload.DeltaStream) func(t *testing.T) (*Cluster, func(int) map[int]relation.Delta) {
		return func(t *testing.T) (*Cluster, func(int) map[int]relation.Delta) {
			h, err := partition.Uniform(d.Clone(), 4, 7)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := FromHorizontal(h)
			if err != nil {
				t.Fatal(err)
			}
			streams := workload.SplitStreams(h.Fragments, workload.DeltaConfig{Seed: 7, Inserts: 20, Updates: 10, Deletes: 10}, mk)
			return cl, func(int) map[int]relation.Delta {
				out := make(map[int]relation.Delta, len(streams))
				for i, s := range streams {
					out[i] = s.Next()
				}
				return out
			}
		}
	}
	cust := workload.Cust(workload.CustConfig{N: 20000, Seed: 7})
	xref := workload.XRef(workload.XRefConfig{N: 8000, Seed: 7})
	custCFDs := append([]*cfd.CFD{workload.CustPatternCFD(16), workload.CustStreetCFD()}, workload.CustOverlappingCFDs(32, 8)...)
	xrefCFDs := []*cfd.CFD{workload.XRefCFD(), workload.XRefMiningFD()}
	return []accountingCase{
		{name: "emp", cfds: []*cfd.CFD{phi1, phi2, phi3}, build: emp},
		// One merged cluster of four (phi3 constant-only), and a merged
		// pair with exactly one variable member.
		{name: "emp-merged", cfds: []*cfd.CFD{phi1, phi2, phi3, cfd.MustParse(`phi4: [CC] -> [city] : (01 || _)`)}, build: emp},
		{name: "emp-oneview", cfds: []*cfd.CFD{phi3, cfd.MustParse(`phi5: [CC, AC, zip] -> [street]`)}, build: emp},
		{name: "cust", cfds: custCFDs, build: streamed(cust, workload.CustDeltaStream)},
		{name: "xref", cfds: xrefCFDs, build: streamed(xref, workload.XRefDeltaStream)},
		{name: "xref-mined", cfds: xrefCFDs, opt: Options{MineTheta: 0.1}, build: streamed(xref, workload.XRefDeltaStream)},
	}
}

type accountingMode struct {
	name      string
	cfds      []*cfd.CFD
	clustered bool
	alone     bool
}

func accountingModes(cfds []*cfd.CFD) []accountingMode {
	var modes []accountingMode
	for _, c := range cfds {
		modes = append(modes, accountingMode{name: "alone:" + c.Name, cfds: []*cfd.CFD{c}, alone: true})
	}
	return append(modes,
		accountingMode{name: "unclustered", cfds: cfds},
		accountingMode{name: "clustered", cfds: cfds, clustered: true})
}

// accountingRecord is everything one run reports that the golden pins.
type accountingRecord struct {
	cfds    []*cfd.CFD
	perCFD  []*relation.Relation
	shipped int64
	modeled float64
	ship    dist.Report
	// Per-unit detail, recorded for the one-CFD modes only.
	unit                    bool
	coords, checkSizes      []int
	mined                   int
	localOnly               bool
	deltaTuples, deltaBytes int64
}

// accountingRun is one compiled plan, run fresh or incrementally.
type accountingRun struct {
	plan  *Plan
	alone bool
}

func newAccountingRun(t *testing.T, cl *Cluster, cfds []*cfd.CFD, algo Algorithm, opt Options, clustered, alone bool) *accountingRun {
	t.Helper()
	opt.Workers = 1
	p, err := CompileSet(context.Background(), cl, cfds, algo, opt, clustered)
	if err != nil {
		t.Fatal(err)
	}
	return &accountingRun{plan: p, alone: alone}
}

func (r *accountingRun) detect(t *testing.T, incremental bool) accountingRecord {
	t.Helper()
	run := r.plan.Detect
	if incremental {
		run = r.plan.DetectIncremental
	}
	res, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec := accountingRecord{
		cfds: res.CFDs, perCFD: res.PerCFD,
		shipped: res.ShippedTuples, modeled: res.ModeledTime, ship: res.Shipment,
		deltaTuples: res.DeltaShippedTuples, deltaBytes: res.DeltaShippedBytes,
	}
	if r.alone {
		u := res.Units[0]
		rec.unit, rec.coords, rec.checkSizes, rec.mined, rec.localOnly = true, u.Coordinators, u.CheckSizes, u.MinedPatterns, u.LocalOnly
	}
	return rec
}

func writeAccounting(buf *bytes.Buffer, label string, rec accountingRecord) {
	fmt.Fprintf(buf, "== %s\n", label)
	for i, c := range rec.cfds {
		rows := make([]string, 0, rec.perCFD[i].Len())
		for _, tup := range rec.perCFD[i].Tuples() {
			rows = append(rows, strings.Join(tup, "|"))
		}
		sort.Strings(rows)
		h := fnv.New64a()
		for _, r := range rows {
			h.Write([]byte(r))
			h.Write([]byte{'\n'})
		}
		fmt.Fprintf(buf, "cfd %s: n=%d fnv=%016x", c.Name, len(rows), h.Sum64())
		if len(rows) <= 8 {
			fmt.Fprintf(buf, " %q", rows)
		}
		buf.WriteByte('\n')
	}
	fmt.Fprintf(buf, "shipped=%d modeled=%016x\n", rec.shipped, math.Float64bits(rec.modeled))
	if rec.unit {
		fmt.Fprintf(buf, "unit: coords=%v check=%v mined=%d local=%v\n", rec.coords, rec.checkSizes, rec.mined, rec.localOnly)
	}
	s := rec.ship
	fmt.Fprintf(buf, "ship: tuples=%d bytes=%d ctlmsgs=%d ctlbytes=%d delta=%d/%d result-delta=%d/%d\n",
		s.TotalTuples, s.TotalBytes, s.ControlMessages, s.ControlBytes, s.TotalDeltaTuples, s.TotalDeltaBytes,
		rec.deltaTuples, rec.deltaBytes)
}
