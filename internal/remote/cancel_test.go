package remote

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// cancellingProxy wraps a RemoteSite so the first Deposit RPC of a
// fresh run, or the first FoldDetect RPC of an incremental round,
// cancels the driver's context once the call has landed at the server —
// exactly the deposit (or fold session) a cancelled run must not leak
// across the wire.
type cancellingProxy struct {
	core.SiteAPI
	once   *sync.Once
	cancel context.CancelFunc
	landed *bool
}

func (p *cancellingProxy) Deposit(_ context.Context, task string, batch *relation.Relation, nonce string) error {
	err := p.SiteAPI.Deposit(context.Background(), task, batch, nonce)
	p.once.Do(func() {
		*p.landed = err == nil
		p.cancel()
	})
	return err
}

// FoldDetect lets the fold run to completion at the server, then
// cancels before the reply reaches the driver.
func (p *cancellingProxy) FoldDetect(ctx context.Context, args core.FoldArgs) (*core.FoldReply, error) {
	rep, err := p.SiteAPI.FoldDetect(context.Background(), args)
	p.once.Do(func() {
		*p.landed = err == nil
		p.cancel()
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// TestRemoteDetectCancelDrainsDeposits is the RPC half of the
// cancellation satellite: a context cancelled mid-shipping against a
// TCP cluster must leave zero buffered deposits on every server-side
// site — the driver's Cancel RPC drains (and tombstones) the task.
func TestRemoteDetectCancelDrainsDeposits(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 2_000, Seed: 5, ErrRate: 0.05})
	h, err := partition.Uniform(data, 3, 1)
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
	_, err = core.DetectOnce(ctx, cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{}, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if !landed {
		t.Fatal("no deposit landed before the cancel — the drain assertion would be vacuous")
	}
	for i, s := range served {
		if n := s.PendingDeposits(); n != 0 {
			t.Errorf("server site %d still buffers %d deposit tasks after cancelled run", i, n)
		}
	}
	// The cluster stays serviceable over the same connections.
	if _, err := core.DetectOnce(context.Background(), cl, []*cfd.CFD{rule}, core.PatDetectS, core.Options{}, false); err != nil {
		t.Fatal(err)
	}
	for i, s := range served {
		if n := s.PendingDeposits(); n != 0 {
			t.Errorf("server site %d holds %d leftover deposit tasks after the post-cancel run", i, n)
		}
	}
}

// TestRemoteCancelTombstonesLateDeposit exercises the version-3 Cancel
// message end to end: after Cancel, a deposit that arrives late (the
// in-flight-across-cancellation race) is dropped at the server instead
// of buffering forever.
func TestRemoteCancelTombstonesLateDeposit(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, served := startSites(t, h)
	sites, _, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batch := workload.EMPData()
	if err := sites[0].Deposit(ctx, "job/b0", batch, ""); err != nil {
		t.Fatal(err)
	}
	if err := sites[0].Cancel("job"); err != nil {
		t.Fatal(err)
	}
	// The late deposit: same task, after the cancel.
	if err := sites[0].Deposit(ctx, "job/b1", batch, ""); err != nil {
		t.Fatal(err)
	}
	if n := served[0].PendingDeposits(); n != 0 {
		t.Errorf("late deposit for a cancelled task buffered at the server (%d tasks)", n)
	}
	// An unrelated task still lands.
	if err := sites[0].Deposit(ctx, "job2/b0", batch, ""); err != nil {
		t.Fatal(err)
	}
	if n := served[0].PendingDeposits(); n != 1 {
		t.Errorf("unrelated deposit suppressed (%d tasks buffered)", n)
	}
}

// hangService answers the handshake but never its DetectConstantsLocal
// — a hung site. Only the methods the test path reaches are defined.
type hangService struct {
	schema *relation.Schema
	frag   *relation.Relation
}

func (s *hangService) Info(_ struct{}, reply *InfoReply) error {
	reply.Version = WireVersion
	reply.ID = 0
	reply.NumTuples = s.frag.Len()
	reply.Pred = relation.True()
	reply.Schema = SchemaToWire(s.schema)
	return nil
}

func (s *hangService) DetectConstantsLocal(_ ConstantsArgs, _ *WireRelation) error {
	select {} // never returns
}

// TestCallTimeoutUnblocksHungSite pins the per-call I/O budget: a call
// against a site that accepts but never answers fails within the
// configured timeout instead of blocking the driver forever.
func TestCallTimeoutUnblocksHungSite(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv := rpc.NewServer()
	schema := workload.EMPSchema()
	if err := srv.RegisterName(serviceName, &hangService{schema: schema, frag: workload.EMPData()}); err != nil {
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
	sites, _, err := DialWithConfig([]string{lis.Addr().String()},
		DialConfig{CallTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rule := workload.EMPCFDs()[0]
	start := time.Now()
	_, err = sites[0].DetectConstantsLocal(context.Background(), rule)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a hung site returned without error")
	}
	if !strings.Contains(err.Error(), "timed out") && !errors.Is(err, rpc.ErrShutdown) {
		t.Errorf("expected a timeout-shaped error, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timeout took %v, budget was 150ms", elapsed)
	}
}

// TestCallContextCancelUnblocks pins the ctx leg: an already-cancelled
// context fails fast without touching the wire, and a cancel while a
// call is in flight abandons the wait.
func TestCallContextCancelUnblocks(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, _, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sites[0].SigmaStats(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: got %v", err)
	}
	rule := workload.EMPCFDs()[0]
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	// The healthy site answers quickly, so this usually completes; the
	// assertion is only that a deadline ctx can never hang the caller.
	done := make(chan struct{})
	go func() {
		_, _ = sites[1].DetectConstantsLocal(ctx2, rule)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("context-bounded call hung")
	}
}

// TestTimeoutIdleConnectionSurvives pins the deadline bookkeeping: an
// armed per-call timeout must not fire on an idle connection between
// calls (the rpc client keeps a standing read open).
func TestTimeoutIdleConnectionSurvives(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startSites(t, h)
	sites, _, err := DialWithConfig(addrs, DialConfig{CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rule := workload.EMPCFDs()[0]
	ctx := context.Background()
	if _, err := sites[0].DetectConstantsLocal(ctx, rule); err != nil {
		t.Fatal(err)
	}
	// Idle well past the call timeout, then call again on the same
	// connection: it must still work.
	time.Sleep(300 * time.Millisecond)
	if _, err := sites[0].DetectConstantsLocal(ctx, rule); err != nil {
		t.Fatalf("connection died while idle under a call timeout: %v", err)
	}
}
