package remote

import (
	"context"
	"net"
	"net/rpc"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// startSites serves each fragment of the partition on a loopback TCP
// listener, returning the addresses and the server-side sites (so
// tests can assert on the sites' buffered state).
func startSites(t *testing.T, h *partition.Horizontal) ([]string, []*core.Site) {
	t.Helper()
	addrs := make([]string, h.N())
	served := make([]*core.Site, h.N())
	for i := range h.Fragments {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pred := relation.True()
		if len(h.Predicates) > i {
			pred = h.Predicates[i]
		}
		site := core.NewSite(i, h.Fragments[i], pred)
		served[i] = site
		go func() { _ = ServeAPIContext(context.Background(), lis, site, h.Schema) }()
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr().String()
	}
	return addrs, served
}

func TestWireRelationRoundTrip(t *testing.T) {
	d := workload.EMPData()
	w := ToWire(d)
	back, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameTuples(d) || back.Schema().String() != d.Schema().String() {
		t.Error("wire round trip lost data")
	}
	if ToWire(nil) != nil {
		t.Error("ToWire(nil) should be nil")
	}
	nilBack, err := FromWire(nil)
	if err != nil || nilBack != nil {
		t.Error("FromWire(nil) should be nil")
	}
}

// TestWireRelationColumnarForm checks both wire forms: a repetitive
// relation ships dictionary-encoded, a distinct-heavy one ships as
// rows, and both round-trip exactly.
func TestWireRelationColumnarForm(t *testing.T) {
	s := relation.MustSchema("T", []string{"a", "b"})
	repetitive := relation.New(s)
	for i := 0; i < 200; i++ {
		repetitive.MustAppend(relation.Tuple{"a long repeated value", "another long repeated value"})
	}
	w := ToWire(repetitive)
	if w.Cols == nil || w.Tuples != nil {
		t.Fatalf("repetitive relation should ship columnar, got Cols=%v and a %d-byte row section", w.Cols != nil, len(w.Tuples))
	}
	if w.Rows != repetitive.Len() {
		t.Errorf("wire rows = %d, want %d", w.Rows, repetitive.Len())
	}
	back, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameTuples(repetitive) || back.Schema().String() != repetitive.Schema().String() {
		t.Error("columnar round trip lost data")
	}

	distinct := relation.New(s)
	distinct.MustAppend(relation.Tuple{"x", "y"})
	distinct.MustAppend(relation.Tuple{"z", "w"})
	if wd := ToWire(distinct); wd.Cols != nil {
		t.Error("distinct-heavy relation should ship as rows")
	}

	// Corrupt columnar payloads must be rejected, not crash.
	bad := *w
	bad.Cols = [][]uint32{w.Cols[0]}
	if _, err := FromWire(&bad); err == nil {
		t.Error("column-count mismatch should fail")
	}
	bad = *w
	bad.Cols = [][]uint32{append([]uint32(nil), w.Cols[0]...), append([]uint32(nil), w.Cols[1]...)}
	bad.Cols[1][0] = 999
	if _, err := FromWire(&bad); err == nil {
		t.Error("out-of-range dictionary id should fail")
	}
}

// TestRemoteAbortDrainsDeposits exercises the Abort RPC end to end: a
// deposited batch no longer reaches a later DetectTask once aborted.
func TestRemoteAbortDrainsDeposits(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, _, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	// Deposit the whole EMP instance (it contains violations of φ1)
	// under a block task of "job", then abort "job".
	batch := workload.EMPData()
	if err := sites[0].Deposit(context.Background(), "job/b0", batch, ""); err != nil {
		t.Fatal(err)
	}
	if err := sites[0].Abort("job"); err != nil {
		t.Fatal(err)
	}
	rules := workload.EMPCFDs()[:1]
	pats, err := sites[0].DetectTask(context.Background(), "job/b0", core.LocalInput{Block: core.BlockNone}, rules)
	if err != nil {
		t.Fatal(err)
	}
	if pats[0].Len() != 0 {
		t.Errorf("aborted deposit still produced %d violation patterns", pats[0].Len())
	}
	// Control: without the abort the same deposit does yield patterns.
	if err := sites[0].Deposit(context.Background(), "job2/b0", batch, ""); err != nil {
		t.Fatal(err)
	}
	pats, err = sites[0].DetectTask(context.Background(), "job2/b0", core.LocalInput{Block: core.BlockNone}, rules)
	if err != nil {
		t.Fatal(err)
	}
	if pats[0].Len() == 0 {
		t.Error("control deposit produced no violation patterns — EMP/φ1 should violate")
	}
}

func TestWireSchemaRoundTrip(t *testing.T) {
	s := workload.EMPSchema()
	back, err := SchemaFromWire(SchemaToWire(s))
	if err != nil || back.String() != s.String() {
		t.Errorf("schema round trip: %v %v", back, err)
	}
}

// TestRemoteClusterMatchesLocal runs every algorithm over real TCP
// sites and compares against the in-process cluster, violation for
// violation and shipment for shipment.
func TestRemoteClusterMatchesLocal(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, schema, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	remoteCl, err := core.NewCluster(schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	localCl, err := core.FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range workload.EMPCFDs() {
		for _, algo := range []core.Algorithm{core.CTRDetect, core.PatDetectS, core.PatDetectRT} {
			remote, err := core.DetectOnce(context.Background(), remoteCl, []*cfd.CFD{rule}, algo, core.Options{}, false)
			if err != nil {
				t.Fatalf("%s/%v remote: %v", rule.Name, algo, err)
			}
			local, err := core.DetectOnce(context.Background(), localCl, []*cfd.CFD{rule}, algo, core.Options{}, false)
			if err != nil {
				t.Fatalf("%s/%v local: %v", rule.Name, algo, err)
			}
			if !remote.PerCFD[0].SameTuples(local.PerCFD[0]) {
				t.Errorf("%s/%v: remote patterns differ\nremote %v\nlocal %v",
					rule.Name, algo, remote.PerCFD[0], local.PerCFD[0])
			}
			if remote.ShippedTuples != local.ShippedTuples {
				t.Errorf("%s/%v: shipment %d != %d", rule.Name, algo,
					remote.ShippedTuples, local.ShippedTuples)
			}
		}
	}
}

// TestRemoteMultiCFD drives the multi-CFD algorithms over TCP.
func TestRemoteMultiCFD(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, schema, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	cfds := workload.EMPCFDs()
	seq, err := core.DetectOnce(context.Background(), cl, cfds, core.PatDetectS, core.Options{Workers: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := core.DetectOnce(context.Background(), cl, cfds, core.PatDetectS, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	d := workload.EMPData()
	for ci, c := range cfds {
		vio, err := cfd.NaiveViolations(d, c)
		if err != nil {
			t.Fatal(err)
		}
		xi, _ := d.Schema().Indices(c.X)
		want := map[string]bool{}
		for _, i := range vio {
			want[d.Tuple(i).Key(xi)] = true
		}
		for label, got := range map[string]*relation.Relation{"seq": seq.PerCFD[ci], "clust": clu.PerCFD[ci]} {
			if got.Len() != len(want) {
				t.Errorf("%s %s: %d patterns, want %d", label, c.Name, got.Len(), len(want))
			}
		}
	}
}

// TestRemoteMining exercises MineFrequent over RPC.
func TestRemoteMining(t *testing.T) {
	d := workload.XRef(workload.XRefConfig{N: 500, Seed: 3})
	h, err := partition.Uniform(d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, schema, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectOnce(context.Background(), cl, []*cfd.CFD{workload.XRefMiningFD()}, core.PatDetectS, core.Options{MineTheta: 0.1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units[0].MinedPatterns == 0 {
		t.Error("remote mining found no patterns at θ=0.1")
	}
}

// OldProtocolService mimics a version-1 cfdsite: its Info reply has no
// Version field, which gob-decodes as zero on the driver.
type OldProtocolService struct{ schema *relation.Schema }

type OldInfoReply struct {
	ID        int
	NumTuples int
	Pred      relation.Predicate
	Schema    *WireSchema
}

func (s *OldProtocolService) Info(_ struct{}, reply *OldInfoReply) error {
	reply.Schema = SchemaToWire(s.schema)
	return nil
}

// TestDialRejectsOldWireVersion pins the handshake guard: a stale site
// speaking an older wire protocol must fail Dial loudly instead of
// silently dropping columnar payloads mid-run.
func TestDialRejectsOldWireVersion(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv := rpc.NewServer()
	if err := srv.RegisterName(serviceName, &OldProtocolService{schema: workload.EMPSchema()}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	_, _, err = Dial([]string{lis.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Errorf("dialing an old-protocol site should fail the version check, got %v", err)
	}
}

func TestDialErrors(t *testing.T) {
	if _, _, err := Dial([]string{"127.0.0.1:1"}); err == nil {
		t.Error("dialing a dead address should fail")
	}
	// Wrong ID: serve site 5 but dial it as position 0.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	s := relation.MustSchema("T", []string{"a"})
	site := core.NewSite(5, relation.New(s), relation.True())
	go func() { _ = ServeAPIContext(context.Background(), lis, site, s) }()
	if _, _, err := Dial([]string{lis.Addr().String()}); err == nil {
		t.Error("ID mismatch should fail the handshake")
	}
}
