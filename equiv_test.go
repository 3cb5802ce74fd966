package distcfd

// The execution-mode equivalence table (ROADMAP item 8's matrix in its
// minimal form): one CUST instance, one rule set, one delta trace and
// one fault plan, run in every combination of
//
//	storage/transport  in-memory | store-backed | store-backed over loopback RPC
//	packed shipping    on | off
//	units overlapped   1 | 4 (WithWorkers)
//	operation          Detect | DetectIncremental over a delta trace | FailDegrade with a site down
//
// Every cell must reproduce the in-memory, serial, default-shipping run
// of the same operation exactly: violation patterns (in order),
// ShippedTuples, ModeledTime, and per operation the delta-channel
// figures or the degraded-result fields. How a run executes may change
// only its byte accounting and its wall clock — and where sites can
// serve packed payloads (the store-backed modes), packing must make the
// modeled bytes smaller, never larger.
//
// Below the table sit the two representation-equivalence tests that are
// not cells of it: they compare the dictionary-encoded kernel and σ
// against their row-path references, not one execution mode against
// another.

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/engine"
	"distcfd/internal/faulty"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/remote"
	"distcfd/internal/workload"
)

// equivCell is one execution mode of the table.
type equivCell struct {
	mode    string // "mem", "store" or "rpc"
	packed  bool
	workers int
}

func (c equivCell) String() string {
	ship := "plain"
	if c.packed {
		ship = "packed"
	}
	return fmt.Sprintf("%s/%s/w%d", c.mode, ship, c.workers)
}

// equivAnchor is the cell every other is compared with.
var equivAnchor = equivCell{mode: "mem", packed: true, workers: 1}

// equivFixture is what every cell shares: the partitioned instance, the
// rules, the delta trace and the site the degraded runs hold down. It
// counts, per cell, the deposits that arrived counted (a store site's
// grouped σ-blocks).
type equivFixture struct {
	h       *partition.Horizontal
	rules   []*CFD
	deltas  []map[int]Delta // one Apply per site per round
	down    int
	counted map[equivCell]*atomic.Int64
}

// countingDeposits counts the counted batches deposited through it.
type countingDeposits struct {
	core.SiteAPI
	counted *atomic.Int64
}

func (c countingDeposits) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	if batch.Counts() != nil {
		c.counted.Add(1)
	}
	return c.SiteAPI.Deposit(ctx, task, batch, nonce)
}

func newEquivFixture(t *testing.T) *equivFixture {
	t.Helper()
	data := workload.Cust(workload.CustConfig{N: 12_000, Seed: 42, ErrRate: 0.02})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fix := &equivFixture{
		h: h,
		// The σ-partitioned pattern CFD and the street rule merge into one
		// shared-σ cluster (LHS containment); the two FDs are units of their
		// own. Three units, so WithWorkers above one overlaps them, in a
		// fresh run and an incremental round alike — over fragments no run
		// has encoded yet, which is the lazy per-column build `go test
		// -race` watches.
		rules: []*CFD{workload.CustPatternCFD(64), workload.CustStreetCFD(),
			cfd.MustParse(`p1: [name] -> [phn]`), cfd.MustParse(`p2: [street, city] -> [zip]`)},
		down:    1,
		counted: map[equivCell]*atomic.Int64{},
	}
	// One delta sequence, generated once, replayed into every cell.
	streams := workload.SplitStreams(h.Fragments,
		workload.DeltaConfig{Seed: 5, Inserts: 40, Updates: 25, Deletes: 15, ErrRate: 0.05},
		workload.CustDeltaStream)
	for r := 0; r < 3; r++ {
		round := make(map[int]Delta, len(streams))
		for i, ds := range streams {
			round[i] = ds.Next()
		}
		fix.deltas = append(fix.deltas, round)
	}
	return fix
}

// cluster builds the cell's sites from scratch — fresh fragments, fresh
// store directories (the WAL mutates them), fresh connections — so no
// cell sees state another left behind.
func (fix *equivFixture) cluster(t *testing.T, c equivCell, degrade bool) *Cluster {
	t.Helper()
	sites := make([]core.SiteAPI, fix.h.N())
	for i, frag := range fix.h.Fragments {
		if c.mode == "mem" {
			sites[i] = core.NewSite(i, frag.Clone(), relation.True())
			continue
		}
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
	if c.mode == "rpc" {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		addrs := make([]string, len(sites))
		for i, s := range sites {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = remote.ServeAPIContext(ctx, lis, s, fix.h.Schema) }()
			addrs[i] = lis.Addr().String()
		}
		clients, _, err := remote.Dial(addrs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cl := range clients {
			t.Cleanup(func() { cl.(*remote.RemoteSite).Close() })
			sites[i] = cl
		}
	}
	if degrade {
		// Down from its first call on, for good: the fault keys on the
		// site's call count, which no execution mode changes.
		sites[fix.down] = faulty.Wrap(sites[fix.down], faulty.Plan{CrashAt: 1})
	}
	if fix.counted[c] == nil {
		fix.counted[c] = new(atomic.Int64)
	}
	for i := range sites {
		sites[i] = countingDeposits{SiteAPI: sites[i], counted: fix.counted[c]}
	}
	cl, err := core.NewCluster(fix.h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func (fix *equivFixture) compile(t *testing.T, c equivCell, degrade bool) *Detector {
	t.Helper()
	opts := []Option{WithAlgorithm(PatDetectS), WithWorkers(c.workers), WithPackedShipping(c.packed)}
	if degrade {
		opts = append(opts, WithFailurePolicy(FailDegrade))
	}
	det, err := Compile(fix.cluster(t, c, degrade), fix.rules, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// The operations of the table. Each returns the results the cell
// produced, in order (one, or one per round).
type equivOp func(t *testing.T, fix *equivFixture, c equivCell) []*Result

func equivDetect(t *testing.T, fix *equivFixture, c equivCell) []*Result {
	res, err := fix.compile(t, c, false).Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return []*Result{res}
}

// equivIncremental is the seed round, then one DetectDelta per round of
// the trace.
func equivIncremental(t *testing.T, fix *equivFixture, c equivCell) []*Result {
	ctx := context.Background()
	det := fix.compile(t, c, false)
	seed, err := det.DetectIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := []*Result{seed}
	for _, round := range fix.deltas {
		res, err := det.DetectDelta(ctx, round)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func equivDegrade(t *testing.T, fix *equivFixture, c equivCell) []*Result {
	res, err := fix.compile(t, c, true).Detect(context.Background())
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if !res.Partial || len(res.ExcludedSites) != 1 || res.ExcludedSites[0] != fix.down {
		t.Fatalf("run over a dead site %d reports Partial=%v ExcludedSites=%v", fix.down, res.Partial, res.ExcludedSites)
	}
	return []*Result{res}
}

// assertSameRuns pins the equivalence contract between a cell's results
// and the anchor's, round by round.
func assertSameRuns(t *testing.T, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, anchor has %d", len(got), len(want))
	}
	for r := range want {
		g, w := got[r], want[r]
		for ci, wp := range w.PerCFD {
			gp := g.PerCFD[ci]
			if gp.Len() != wp.Len() {
				t.Fatalf("round %d: %s: %d violation patterns, anchor %d", r, w.CFDs[ci].Name, gp.Len(), wp.Len())
			}
			for i, tup := range wp.Tuples() {
				if !tup.Equal(gp.Tuple(i)) {
					t.Fatalf("round %d: %s: pattern %d is %v, anchor %v", r, w.CFDs[ci].Name, i, gp.Tuple(i), tup)
				}
			}
		}
		if g.ShippedTuples != w.ShippedTuples {
			t.Errorf("round %d: ShippedTuples %d, anchor %d", r, g.ShippedTuples, w.ShippedTuples)
		}
		if g.ModeledTime != w.ModeledTime {
			t.Errorf("round %d: ModeledTime %v, anchor %v", r, g.ModeledTime, w.ModeledTime)
		}
		if g.Incremental != w.Incremental || g.DeltaShippedTuples != w.DeltaShippedTuples {
			t.Errorf("round %d: Incremental %v with %d delta tuples, anchor %v with %d",
				r, g.Incremental, g.DeltaShippedTuples, w.Incremental, w.DeltaShippedTuples)
		}
		// Delta batches never ship packed — a mutated fragment is no
		// longer a pure base view — so past the seed round the delta
		// channel's bytes are equal too, not merely no larger.
		if r > 0 && g.DeltaShippedBytes != w.DeltaShippedBytes {
			t.Errorf("round %d: DeltaShippedBytes %d, anchor %d", r, g.DeltaShippedBytes, w.DeltaShippedBytes)
		}
		if g.Partial != w.Partial || g.Coverage != w.Coverage || fmt.Sprint(g.ExcludedSites) != fmt.Sprint(w.ExcludedSites) {
			t.Errorf("round %d: Partial %v Coverage %v ExcludedSites %v, anchor %v %v %v",
				r, g.Partial, g.Coverage, g.ExcludedSites, w.Partial, w.Coverage, w.ExcludedSites)
		}
	}
}

// runEquivalence runs op in every cell of the table against the anchor.
// strictlyFewerBytes asks that packing make the modeled bytes of the
// store-backed cells strictly smaller than their plain control's, not
// merely no larger, and that those cells ship at least one counted
// σ-block — the grouped shipment, not a bag the grouping left alone.
func runEquivalence(t *testing.T, op equivOp, strictlyFewerBytes bool) {
	fix := newEquivFixture(t)
	anchor := op(t, fix, equivAnchor)
	for r, res := range anchor {
		if res.ShippedTuples == 0 || res.PerCFD[0].Len() == 0 {
			t.Fatalf("round %d of the anchor ships %d tuples and finds %d patterns: the table would compare nothing",
				r, res.ShippedTuples, res.PerCFD[0].Len())
		}
	}
	shipped := map[equivCell]int64{} // modeled data-plane bytes of the first result
	for _, mode := range []string{"mem", "store", "rpc"} {
		for _, packed := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				c := equivCell{mode, packed, workers}
				t.Run(c.String(), func(t *testing.T) {
					got := op(t, fix, c)
					assertSameRuns(t, got, anchor)
					shipped[c] = got[0].Shipment.TotalBytes
					if n := fix.counted[c].Load(); strictlyFewerBytes && c.packed && c.mode != "mem" && n == 0 {
						t.Errorf("no counted σ-block was deposited")
					}
				})
			}
		}
	}
	// Packing is the one thing allowed to move the byte accounting, and
	// only downwards.
	for c, pb := range shipped {
		if !c.packed || c.mode == "mem" {
			continue
		}
		vb := shipped[equivCell{c.mode, false, c.workers}]
		if pb > vb || (strictlyFewerBytes && pb == vb) {
			t.Errorf("%v modeled %d shipped bytes, its plain control %d — packed should be smaller", c, pb, vb)
		}
	}
}

// The three operations keep the names their pre-table tests had; the
// in-memory and loopback-RPC modes and the worker axis are cells of the
// same runs now.

func TestPackedShipEquivalence(t *testing.T) { runEquivalence(t, equivDetect, true) }

// An incremental run materializes no full-recompute bytes (its regular
// Bytes matrices stay zero), so only the no-larger half applies.
func TestPackedShipEquivalenceIncremental(t *testing.T) { runEquivalence(t, equivIncremental, false) }

func TestPackedShipEquivalenceDegraded(t *testing.T) { runEquivalence(t, equivDegrade, false) }

// equivSamples returns named (relation, CFD set) pairs covering EMP,
// CUST and XREF, each with extra tuples whose values contain bytes
// adjacent to the 0x1f separator (0x1e, 0x20), multi-byte runes, and
// empty strings.
func equivSamples(tb testing.TB) []struct {
	name string
	d    *relation.Relation
	cfds []*cfd.CFD
} {
	tb.Helper()
	// EMP attrs: id, name, title, CC, AC, phn, street, city, zip, salary.
	emp := workload.EMPData()
	emp.MustAppend(relation.Tuple{"11", ": ,™", "MTS\x1e", "01\x1e", "908", "2909209", "Mtn\x20Ave", "NYC", "07974", ""})
	emp.MustAppend(relation.Tuple{"12", "", "MTS\x1e", "01", "\x1e908", "2909209", "Mtn\x20Ave", "NYC", "07974", "80k"})

	// CUST attrs: id, name, CC, AC, phn, street, city, zip, title, price, qty.
	cust := workload.Cust(workload.CustConfig{N: 4_000, Seed: 7, ErrRate: 0.02})
	cust.MustAppend(relation.Tuple{"x1", "n\x1en", "44\x1e", "4408", "", "street \x1e1", "city™", "zip\x201", "t1", "9.9", "1"})
	cust.MustAppend(relation.Tuple{"x2", "n\x1en", "44", "\x1e4408", "ph", "street \x1e1", "city™", "zip\x202", "t1", "8.5", "2"})
	cust.MustAppend(relation.Tuple{"x3", "n\x20n", "44\x1e", "4408", "", "street 2", "city™", "zip\x201", "t2", "7", "3"})

	xref := workload.XRef(workload.XRefConfig{N: 4_000, Seed: 11, ErrRate: 0.02})

	return []struct {
		name string
		d    *relation.Relation
		cfds []*cfd.CFD
	}{
		{"EMP", emp, workload.EMPCFDs()},
		{"CUST", cust, []*cfd.CFD{
			workload.CustPatternCFD(32),
			workload.CustStreetCFD(),
			cfd.MustParse(`e1: [name] -> [phn]`),
			cfd.MustParse(`e2: [street, city] -> [zip]`),
		}},
		{"XREF", xref, []*cfd.CFD{workload.XRefCFD(), workload.XRefCFD2(), workload.XRefMiningFD()}},
	}
}

// TestEncodedDetectMatchesRowPath: the dictionary-encoded kernel
// (engine.Kernel.DetectSet) must agree, bit for bit, with the
// row-oriented string-key path (engine.DetectRows) and with the naive
// oracle, over the repo's three workloads plus adversarial values
// sitting next to the 0x1f key separator of the old row path.
func TestEncodedDetectMatchesRowPath(t *testing.T) {
	var kern engine.Kernel
	for _, sample := range equivSamples(t) {
		t.Run(sample.name, func(t *testing.T) {
			for _, c := range sample.cfds {
				encoded, err := kern.DetectSet(sample.d, []*cfd.CFD{c}, engine.Opts{})
				if err != nil {
					t.Fatalf("%s: encoded: %v", c.Name, err)
				}
				rows, err := engine.DetectRows(sample.d, c)
				if err != nil {
					t.Fatalf("%s: rows: %v", c.Name, err)
				}
				if !slices.Equal(encoded, rows) {
					t.Errorf("%s: encoded path found %d violations, row path %d",
						c.Name, len(encoded), len(rows))
				}
				// The naive oracle is quadratic; spot-check small inputs only.
				if sample.d.Len() <= 100 {
					naive, err := cfd.NaiveViolations(sample.d, c)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(encoded, naive) {
						t.Errorf("%s: encoded path disagrees with naive oracle", c.Name)
					}
				}
			}
			encSet, err := kern.DetectSet(sample.d, sample.cfds, engine.Opts{})
			if err != nil {
				t.Fatal(err)
			}
			rowSet, err := engine.DetectSetRows(sample.d, sample.cfds)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(encSet, rowSet) {
				t.Errorf("DetectSet: encoded %d violations, rows %d", len(encSet), len(rowSet))
			}
		})
	}
}

// TestEncodedSigmaMatchesRowPath pins the σ-routing equivalence: the
// single-pass encoded AssignAll must agree with the per-tuple
// string-key Assign for every tuple of every sample.
func TestEncodedSigmaMatchesRowPath(t *testing.T) {
	for _, sample := range equivSamples(t) {
		t.Run(sample.name, func(t *testing.T) {
			for _, c := range sample.cfds {
				view, ok := c.VariableView()
				if !ok {
					continue
				}
				spec, err := core.SpecFromCFD(view)
				if err != nil {
					t.Fatal(err)
				}
				assign, counts, err := spec.AssignAll(sample.d)
				if err != nil {
					t.Fatal(err)
				}
				xi, err := sample.d.Schema().Indices(spec.X)
				if err != nil {
					t.Fatal(err)
				}
				wantCounts := make([]int, spec.K())
				buf := make([]string, len(xi))
				for i, tp := range sample.d.Tuples() {
					for j, col := range xi {
						buf[j] = tp[col]
					}
					want := spec.Assign(buf)
					if assign[i] != want {
						t.Fatalf("%s: tuple %d: encoded σ=%d, row σ=%d", c.Name, i, assign[i], want)
					}
					if want >= 0 {
						wantCounts[want]++
					}
				}
				if !slices.Equal(counts, wantCounts) {
					t.Errorf("%s: lstat differs: %v vs %v", c.Name, counts, wantCounts)
				}
			}
		})
	}
}
