package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// TestRemoteIncrementalEquivalence is the loopback-TCP leg of the
// incremental equivalence property: deltas flow to the sites over the
// wire-v4 ApplyDelta message, DetectIncremental ships only delta
// blocks over TCP, and its output, ShippedTuples, and ModeledTime stay
// byte-identical to a fresh Detect over the same connections and to an
// in-process virgin cluster rebuilt from the server-side fragments.
func TestRemoteIncrementalEquivalence(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 1_200, Seed: 3, ErrRate: 0.03})
	h, err := partition.Uniform(data, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs, served := startSites(t, h)
	sites, schema, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfds := []*cfd.CFD{workload.CustPatternCFD(24), workload.CustStreetCFD()}
	p, err := core.CompileSet(ctx, cl, cfds, core.PatDetectRT, core.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.SplitStreams(h.Fragments,
		workload.DeltaConfig{Seed: 21, Inserts: 6, Updates: 3, Deletes: 2, ErrRate: 0.1},
		func(f *relation.Relation, c workload.DeltaConfig) *workload.DeltaStream {
			return workload.CustDeltaStream(f, c)
		})
	for step := 0; step < 3; step++ {
		deltas := make(map[int]relation.Delta, len(streams))
		for i, ds := range streams {
			deltas[i] = ds.Next()
		}
		inc, err := p.DetectDelta(ctx, deltas)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := p.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Virgin leg: in-process cluster over deep copies of the
		// server-side fragments (the remote proxies cannot be cloned).
		vs := make([]core.SiteAPI, len(served))
		for i, s := range served {
			vs[i] = core.NewSite(i, s.Fragment().Clone(), relation.True())
		}
		vcl, err := core.NewCluster(h.Schema, vs)
		if err != nil {
			t.Fatal(err)
		}
		vp, err := core.CompileSet(ctx, vcl, cfds, core.PatDetectRT, core.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		virgin, err := vp.Detect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfds {
			if inc.PerCFD[i].String() != fresh.PerCFD[i].String() ||
				inc.PerCFD[i].String() != virgin.PerCFD[i].String() {
				t.Fatalf("step %d cfd %d: incremental/fresh/virgin patterns diverge", step, i)
			}
		}
		if inc.ShippedTuples != fresh.ShippedTuples || inc.ShippedTuples != virgin.ShippedTuples {
			t.Fatalf("step %d: ShippedTuples inc=%d fresh=%d virgin=%d",
				step, inc.ShippedTuples, fresh.ShippedTuples, virgin.ShippedTuples)
		}
		if inc.ModeledTime != fresh.ModeledTime || inc.ModeledTime != virgin.ModeledTime {
			t.Fatalf("step %d: ModeledTime inc=%v fresh=%v virgin=%v",
				step, inc.ModeledTime, fresh.ModeledTime, virgin.ModeledTime)
		}
		if step > 0 && inc.ShippedTuples > 0 && inc.DeltaShippedTuples >= inc.ShippedTuples {
			t.Fatalf("step %d: delta channel (%d) did not undercut full recompute (%d) over TCP",
				step, inc.DeltaShippedTuples, inc.ShippedTuples)
		}
	}
	// No deposit may linger on any server after the rounds.
	for i, s := range served {
		if n := s.PendingDeposits(); n != 0 {
			t.Errorf("server site %d buffers %d deposit tasks after incremental rounds", i, n)
		}
	}
}

// TestRemoteIncrementalCancelMidFold cancels an incremental round over
// TCP once a coordinator's fold — carrying its shipped delta blocks —
// has landed: every server must end with zero pending deposits, and the
// next round must transparently reseed and match the one-shot path.
func TestRemoteIncrementalCancelMidFold(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 2_000, Seed: 9, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, served := startSites(t, h)
	sites, schema, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	landed := false
	for i := range sites {
		sites[i] = &cancellingProxy{SiteAPI: sites[i], once: &once, cancel: cancel, landed: &landed}
	}
	cl, err := core.NewCluster(schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	rule := workload.CustPatternCFD(16)
	sp, err := core.CompileSet(context.Background(), cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.DetectIncremental(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if !landed {
		t.Fatal("no fold landed before the cancel — the cleanup assertions would be vacuous")
	}
	for i, s := range served {
		if n := s.PendingDeposits(); n != 0 {
			t.Errorf("server site %d still buffers %d deposit tasks after cancelled incremental run", i, n)
		}
	}
	inc, err := sp.DetectIncremental(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sp.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inc.PerCFD[0].String() != fresh.PerCFD[0].String() ||
		inc.ShippedTuples != fresh.ShippedTuples || inc.ModeledTime != fresh.ModeledTime {
		t.Fatal("post-cancel incremental round diverges from fresh Detect over TCP")
	}
	for i, s := range served {
		if n := s.PendingDeposits(); n != 0 {
			t.Errorf("server site %d holds %d leftover deposit tasks after recovery", i, n)
		}
	}
}

// skewService fakes a peer that answers the v4 handshake while
// speaking a different wire version — the rollout-skew scenario the v4
// bump makes likely.
type skewService struct {
	version int
	schema  *relation.Schema
}

func (s *skewService) Info(_ struct{}, reply *InfoReply) error {
	reply.Version = s.version
	reply.ID = 0
	reply.NumTuples = 0
	reply.Pred = relation.True()
	reply.Schema = SchemaToWire(s.schema)
	return nil
}

// TestHandshakeSkewReportsBothVersions is the regression test beside
// the WireVersion check: the error a skewed dial produces must name
// BOTH peers' versions — the site's and this driver's — so either
// side's logs alone diagnose the rollout.
func TestHandshakeSkewReportsBothVersions(t *testing.T) {
	for _, peer := range []int{3, 0} {
		t.Run(fmt.Sprintf("peer-v%d", peer), func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			srv := rpc.NewServer()
			if err := srv.RegisterName(serviceName, &skewService{version: peer, schema: workload.EMPSchema()}); err != nil {
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
			if err == nil {
				t.Fatal("version-skewed handshake accepted")
			}
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("wire version %d", WireVersion)) {
				t.Errorf("skew error does not name the driver's version %d: %q", WireVersion, msg)
			}
			want := fmt.Sprintf("wire version %d", peer)
			if peer == 0 {
				want = "wire version 1"
			}
			if !strings.Contains(msg, want) {
				t.Errorf("skew error does not name the peer's version (%s): %q", want, msg)
			}
		})
	}
}

// TestRemoteApplyDeltaRefreshesNumTuples pins the proxy bookkeeping:
// fragment sizes drive coordinator placement, so the cached size must
// track deltas applied through the proxy.
func TestRemoteApplyDeltaRefreshesNumTuples(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, _, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sites[0].NumTuples()
	if err != nil {
		t.Fatal(err)
	}
	info, err := sites[0].ApplyDelta(context.Background(), relation.Delta{
		Inserts: []relation.Tuple{{"90", "Zoe", "MTS", "44", "131", "1112223", "Mayfield", "EDI", "EH4 8LE", "80k"}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || info.NumTuples != before+1 {
		t.Fatalf("ApplyDelta reported gen=%d n=%d, want gen=1 n=%d", info.Gen, info.NumTuples, before+1)
	}
	after, err := sites[0].NumTuples()
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Fatalf("proxy NumTuples = %d after delta, want %d", after, before+1)
	}
}

// TestRemoteStaleSignalCrossesWire pins that the site's stale-state
// error survives net/rpc's string flattening, because the driver's
// reseed fallback keys on it.
func TestRemoteStaleSignalCrossesWire(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, _, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.SpecFromCFD(workload.EMPCFDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	// A fold against a session never seeded must report staleness.
	_, err = sites[0].FoldDetect(context.Background(), core.FoldArgs{
		Session: "never-seeded", Spec: spec, Blocks: []int{0},
		CFDs: []*cfd.CFD{workload.EMPCFDs()[0]}, FromGen: 0,
	})
	if !core.IsStaleIncremental(err) {
		t.Fatalf("stale signal lost over the wire: %v", err)
	}
}
