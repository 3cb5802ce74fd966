package remote

import (
	"context"
	"net"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// packedExtract returns r's rows packed from its own encoded columns,
// the way a store-backed extract is.
func packedExtract(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	dicts, cols := allColumns(r)
	p, err := colstore.PackColumns(dicts, cols, r.Len())
	if err != nil {
		t.Fatal(err)
	}
	out, err := relation.FromPackedExtract(r.Schema(), p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWirePackedRoundTrip pins the v6 form end to end: a relation
// carrying a packed payload that models smaller than both v5 forms
// ships as WirePackedRelation, round-trips tuple for tuple, and stays
// chunk-backed on the receiver.
func TestWirePackedRoundTrip(t *testing.T) {
	d := packedExtract(t, workload.Cust(workload.CustConfig{N: 5000, Seed: 7}))
	w := ToWire(d)
	if w.Packed == nil {
		t.Fatal("repetitive packed-backed relation should ship in the packed form")
	}
	if w.Tuples != nil || w.Cols != nil {
		t.Fatal("packed wire form must not also carry a v5 payload")
	}
	if w.Rows != d.Len() {
		t.Errorf("wire rows = %d, want %d", w.Rows, d.Len())
	}
	back, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if back.BackingReader() == nil {
		t.Error("receiver should adopt the packed payload as a backing reader")
	}
	if pr, adopted := back.PackedPayload(); pr == nil || !adopted {
		t.Errorf("adopted payload should re-ship packed (pr=%v adopted=%v)", pr, adopted)
	}
	if !back.SameTuples(d) || back.Schema().String() != d.Schema().String() {
		t.Error("packed round trip lost data")
	}

	// Corrupt packed payloads must be rejected at FromWire.
	bad := *w
	bad.Packed = &WirePackedRelation{Rows: w.Packed.Rows, ChunkRows: w.Packed.ChunkRows}
	if _, err := FromWire(&bad); err == nil {
		t.Error("column-free packed payload for a non-empty schema should fail")
	}
}

// startStoreSites persists each fragment as a colstore directory and
// serves it out-of-core over loopback TCP.
func startStoreSites(t *testing.T, h *partition.Horizontal) []string {
	t.Helper()
	addrs := make([]string, h.N())
	for i := range h.Fragments {
		dir := t.TempDir()
		if _, err := colstore.WriteRelationDir(dir, h.Fragments[i]); err != nil {
			t.Fatal(err)
		}
		pred := relation.True()
		if len(h.Predicates) > i {
			pred = h.Predicates[i]
		}
		site, err := core.OpenStoreSite(i, dir, pred)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { site.Close() })
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = ServeAPIContext(context.Background(), lis, site, h.Schema) }()
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr().String()
	}
	return addrs
}

// TestRemotePackedShipEquivalence runs clustered detection over real
// TCP store-backed sites with and without packed shipping: violations,
// tuple accounting, and modeled time must be byte-identical — packed
// shipping changes bytes on the wire, nothing else — and the packed
// run must ship strictly fewer bytes.
func TestRemotePackedShipEquivalence(t *testing.T) {
	d := workload.Cust(workload.CustConfig{N: 12000, Seed: 11, ErrRate: 0.02})
	h, err := partition.Uniform(d, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startStoreSites(t, h)
	rules := []*cfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()}

	run := func(opt core.Options) *core.Result {
		sites, schema, err := Dial(addrs)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := core.NewCluster(schema, sites)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = 1
		res, err := core.DetectOnce(context.Background(), cl, rules, core.PatDetectS, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	packed := run(core.Options{})
	plain := run(core.Options{NoPackedShip: true})

	for i := range rules {
		if !packed.PerCFD[i].SameTuples(plain.PerCFD[i]) {
			t.Errorf("%s: packed and v5 runs disagree on violation patterns", rules[i].Name)
		}
	}
	if packed.ShippedTuples != plain.ShippedTuples {
		t.Errorf("ShippedTuples: packed %d, v5 %d", packed.ShippedTuples, plain.ShippedTuples)
	}
	if packed.ModeledTime != plain.ModeledTime {
		t.Errorf("ModeledTime: packed %v, v5 %v", packed.ModeledTime, plain.ModeledTime)
	}
	pb, vb := packed.Shipment.TotalBytes, plain.Shipment.TotalBytes
	if pb >= vb {
		t.Errorf("packed shipping moved %d bytes, v5 %d — packed should be strictly smaller", pb, vb)
	}
	t.Logf("shipped bytes: packed %d, v5 %d (%.2fx)", pb, vb, float64(pb)/float64(vb))
}
