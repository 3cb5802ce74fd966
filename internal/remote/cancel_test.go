package remote

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
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

// TestCallTimeoutUnblocksHungSite pins the per-call budget: a call
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

// TestTimeoutIdleConnectionSurvives: the call budget belongs to a call,
// not to the connection — an idle connection outlives it between calls
// (the rpc client keeps a standing read open).
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

// TestCallBudgetEndsSiteWork pins the site half of the call budget: with
// no run deadline, a handler blocked on its context sees that context
// end within CallTimeout (plus slack) — the budget crosses the wire in
// the call's WireHeader — while the client gets the timed-out error and
// its next call redials.
func TestCallBudgetEndsSiteWork(t *testing.T) {
	const budget = 150 * time.Millisecond
	data := workload.EMPData()
	var hang atomic.Bool
	hang.Store(true)
	addr, track, ended := serveGivingUp(t, core.NewSite(0, data, relation.True()), data.Schema(), func(method string) bool {
		return method == "DetectConstantsLocal" && hang.CompareAndSwap(true, false)
	})
	sites, _, err := DialWithConfig([]string{addr}, DialConfig{CallTimeout: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer sites[0].(*RemoteSite).Close()

	rule := workload.EMPCFDs()[0]
	_, err = sites[0].DetectConstantsLocal(context.Background(), rule)
	if !isTimedOut(err) {
		t.Fatalf("call past its budget = %v, want the timed-out unavailable error", err)
	}
	select {
	case d := <-ended:
		if d > budget+2*time.Second {
			t.Errorf("the site's work ran %v past a %v budget", d, budget)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the site's work outlived the call budget: its context never ended")
	}
	if _, err := sites[0].DetectConstantsLocal(context.Background(), rule); err != nil {
		t.Fatalf("call after the timeout: %v", err)
	}
	track.mu.Lock()
	accepted := len(track.conns)
	track.mu.Unlock()
	if accepted != 2 {
		t.Errorf("site accepted %d connections, want 2 (the dial and one redial)", accepted)
	}
}

// TestCallBudgetGiveUpIsTransient: a site that gives up the moment its
// budget ends answers with its bare context error, and that reply races
// the client's own timer. Whichever lands first, the call reads as the
// retryable timed-out error — every time — and a FailRetry run re-issues
// it and returns the fault-free answer.
func TestCallBudgetGiveUpIsTransient(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var hangs atomic.Int32
	hangs.Store(rounds)
	pred := relation.True()
	if len(h.Predicates) > 0 {
		pred = h.Predicates[0]
	}
	addrs, _ := startSites(t, h)
	addrs[0], _, _ = serveGivingUp(t, core.NewSite(0, h.Fragments[0], pred), h.Schema, func(method string) bool {
		return (method == "DetectConstantsLocal" || method == "SigmaStats") && hangs.Add(-1) >= 0
	})

	sites, _, err := DialWithConfig(addrs[:1], DialConfig{CallTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rule := workload.EMPCFDs()[0]
	for i := 0; i < rounds-1; i++ {
		if _, err := sites[0].DetectConstantsLocal(context.Background(), rule); !isTimedOut(err) {
			t.Fatalf("round %d: a site that gave up under the budget = %v, want the timed-out unavailable error", i, err)
		}
	}
	sites[0].(*RemoteSite).Close()

	// One give-up left: the run's first SigmaStats or DetectConstantsLocal.
	sites, schema, err := DialWithConfig(addrs, DialConfig{CallTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		defer s.(*RemoteSite).Close()
	}
	cl, err := core.NewCluster(schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	localCl, err := core.FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	cfds := workload.EMPCFDs()
	want, err := core.DetectOnce(context.Background(), localCl, cfds, core.PatDetectS, core.Options{Workers: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DetectOnce(context.Background(), cl, cfds, core.PatDetectS, core.Options{Workers: 1, Failure: core.FailRetry}, false)
	if err != nil {
		t.Fatalf("FailRetry run over a site that gave up once: %v", err)
	}
	if hangs.Load() >= 0 {
		t.Fatal("the run never reached the give-up — the retry assertion would be vacuous")
	}
	if got.Retries < 1 {
		t.Errorf("the run reports %d retries, want the give-up re-issued", got.Retries)
	}
	for ci := range cfds {
		if !got.PerCFD[ci].SameTuples(want.PerCFD[ci]) {
			t.Errorf("cfd %d: violations differ from the fault-free run\n got  %v\n want %v", ci, got.PerCFD[ci], want.PerCFD[ci])
		}
	}
}

// serveGivingUp serves site over loopback behind a hook: a call for
// which hang reports true blocks until its context ends and returns
// ctx.Err(), the way a site that honours its budget gives up, and
// reports on ended how long it waited.
func serveGivingUp(t *testing.T, site core.SiteAPI, schema *relation.Schema, hang func(method string) bool) (string, *trackingListener, <-chan time.Duration) {
	t.Helper()
	ended := make(chan time.Duration, 1)
	api := core.NewIntercept(func() core.SiteAPI { return site },
		func(ctx context.Context, method string, call func(core.SiteAPI) error) error {
			if !hang(method) {
				return call(site)
			}
			began := time.Now()
			<-ctx.Done()
			select {
			case ended <- time.Since(began):
			default:
			}
			return ctx.Err()
		})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	track := &trackingListener{Listener: lis}
	go func() { _ = ServeAPIContext(context.Background(), track, &api, schema) }()
	return lis.Addr().String(), track, ended
}

// isTimedOut reports the client's timed-out error: retryable, typed
// unavailable.
func isTimedOut(err error) bool {
	var ce *core.CodedError
	return errors.As(err, &ce) && ce.Code == core.CodeUnavailable && strings.Contains(ce.Msg, "timed out after")
}
