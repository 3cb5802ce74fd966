package faulty

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"distcfd/internal/core"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

func newInner() *core.Site { return core.NewSite(3, workload.EMPData(), relation.True()) }

func TestParseFullSyntax(t *testing.T) {
	got, err := Parse("seed=7, rate=0.1, err=Deposit@3, err=Deposit@5, err=Ping@1, lat=5ms@10, crash=20, restart=5, reset=2@40, over=50ms@4, drain=30, slow=DetectTask@20ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed:               7,
		Rate:               0.1,
		ErrOn:              map[string][]int{"Deposit": {3, 5}, "Ping": {1}},
		Latency:            5 * time.Millisecond,
		LatencyEvery:       10,
		CrashAt:            20,
		RestartAfter:       5,
		ConnResetEvery:     2,
		ConnResetOps:       40,
		OverloadEvery:      4,
		OverloadRetryAfter: 50 * time.Millisecond,
		DrainAfter:         30,
		SlowOn:             map[string]time.Duration{"DetectTask": 20 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Parse:\n got  %+v\n want %+v", got, want)
	}
	if empty, err := Parse("  "); err != nil || !reflect.DeepEqual(empty, Plan{}) {
		t.Errorf("empty spec should parse to the zero plan, got %+v, %v", empty, err)
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, bad := range []string{
		"bogus=1",       // unknown key
		"rate",          // not key=value
		"rate=x",        // bad number
		"err=Deposit",   // missing @ordinal
		"err=Deposit@x", // bad ordinal
		"lat=5ms",       // missing @every
		"reset=2",       // missing @ops
		"crash=twenty",  // bad number
		"over=50ms",     // missing @every
		"over=x@4",      // bad duration
		"drain=soon",    // bad number
		"slow=Deposit",  // missing @duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestScheduledFaults(t *testing.T) {
	ctx := context.Background()
	inner := newInner()
	s := Wrap(inner, Plan{ErrOn: map[string][]int{"Deposit": {2}}})
	batch := workload.EMPData()
	if err := s.Deposit(ctx, "t1", batch, ""); err != nil {
		t.Fatalf("first deposit: %v", err)
	}
	err := s.Deposit(ctx, "t2", batch, "")
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("second deposit should fail with a *Fault, got %v", err)
	}
	if f.Reason != "scheduled" || f.Method != "Deposit" || f.Site != 3 {
		t.Errorf("fault = %+v, want scheduled Deposit at site 3", f)
	}
	var ce *core.CodedError
	if !errors.As(err, &ce) || ce.Code != core.CodeUnavailable || !ce.NotExecuted {
		t.Errorf("injected fault classifies as %+v, want a not-executed CodeUnavailable", ce)
	}
	if err := s.Deposit(ctx, "t3", batch, ""); err != nil {
		t.Fatalf("third deposit: %v", err)
	}
	// The faulted call never reached the site: t1 and t3 landed, t2 did not.
	if n := inner.PendingDeposits(); n != 2 {
		t.Errorf("inner buffers %d tasks, want 2 (the faulted deposit must not land)", n)
	}
}

// TestRateFaultsDeterministic pins the seeding contract: two wrappers
// with equal plans inject the same fault sequence for the same call
// sequence. Rate draws charge work methods (Ping is exempt), so the
// sequence is driven through Deposit.
func TestRateFaultsDeterministic(t *testing.T) {
	ctx := context.Background()
	plan := Plan{Seed: 42, Rate: 0.5}
	batch := workload.EMPData()
	run := func() []bool {
		s := Wrap(newInner(), plan)
		out := make([]bool, 100)
		for i := range out {
			out[i] = s.Deposit(ctx, "t", batch, "") != nil
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("equal plans injected different fault sequences")
	}
	faults := 0
	for _, hit := range a {
		if hit {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Errorf("rate 0.5 over 100 calls injected %d faults — draw is not working", faults)
	}
}

// TestRateNeverFaultsPing pins the probe exemption: a rate-1.0 plan
// fails every work call yet never the liveness probe, while an
// explicit err=Ping@n schedule still does — the opt-in contract.
func TestRateNeverFaultsPing(t *testing.T) {
	ctx := context.Background()
	s := Wrap(newInner(), Plan{Seed: 7, Rate: 1.0})
	for i := 0; i < 50; i++ {
		if err := s.Ping(ctx); err != nil {
			t.Fatalf("Ping %d faulted under a pure rate plan: %v", i, err)
		}
	}
	if err := s.Deposit(ctx, "t", workload.EMPData(), ""); err == nil {
		t.Fatal("rate 1.0 must fault every work call")
	}

	sched := Wrap(newInner(), Plan{ErrOn: map[string][]int{"Ping": {2}}})
	if err := sched.Ping(ctx); err != nil {
		t.Fatalf("first Ping should pass: %v", err)
	}
	var f *Fault
	if err := sched.Ping(ctx); !errors.As(err, &f) || f.Reason != "scheduled" {
		t.Fatalf("second Ping should draw the scheduled fault, got %v", err)
	}
}

// TestOverloadFaults: every OverloadEvery-th work call is rejected
// with the typed overloaded error carrying the retry-after hint, and
// the rejection is transient + pre-execution so retries absorb it.
func TestOverloadFaults(t *testing.T) {
	ctx := context.Background()
	inner := newInner()
	s := Wrap(inner, Plan{OverloadEvery: 2, OverloadRetryAfter: 25 * time.Millisecond})
	batch := workload.EMPData()
	if err := s.Deposit(ctx, "t1", batch, ""); err != nil { // call 1 passes
		t.Fatal(err)
	}
	err := s.Deposit(ctx, "t2", batch, "") // call 2 rejected
	var ce *core.CodedError
	if !errors.As(err, &ce) || ce.Code != core.CodeOverloaded {
		t.Fatalf("want a CodeOverloaded rejection, got %v", err)
	}
	if ce.RetryAfter != 25*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 25ms", ce.RetryAfter)
	}
	if !ce.NotExecuted {
		t.Error("an admission rejection provably never ran")
	}
	if err := s.Ping(ctx); err != nil { // overload never hits the probe
		t.Fatalf("Ping under overload: %v", err)
	}
	if n := inner.PendingDeposits(); n != 1 {
		t.Errorf("inner buffers %d tasks, want 1 (the rejected deposit must not land)", n)
	}
}

// TestDrainFaults: once the call counter passes DrainAfter every work
// call is rejected with the typed draining error while Ping keeps
// answering — a gracefully retiring site, not a dead one.
func TestDrainFaults(t *testing.T) {
	ctx := context.Background()
	s := Wrap(newInner(), Plan{DrainAfter: 2})
	batch := workload.EMPData()
	if err := s.Deposit(ctx, "t1", batch, ""); err != nil { // call 1 passes
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := s.Deposit(ctx, "t2", batch, "")
		var ce *core.CodedError
		if !errors.As(err, &ce) || ce.Code != core.CodeDraining {
			t.Fatalf("post-drain deposit %d: want CodeDraining, got %v", i, err)
		}
		if !ce.NotExecuted {
			t.Fatal("a drain rejection provably never ran")
		}
	}
	if err := s.Ping(ctx); err != nil {
		t.Fatalf("a draining site must still answer Ping: %v", err)
	}
}

// TestSlowConsumer: SlowOn adds per-method latency without failing the
// call.
func TestSlowConsumer(t *testing.T) {
	ctx := context.Background()
	s := Wrap(newInner(), Plan{SlowOn: map[string]time.Duration{"Deposit": 30 * time.Millisecond}})
	start := time.Now()
	if err := s.Deposit(ctx, "t", workload.EMPData(), ""); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("slow-consumer Deposit took %v, want ≥ 30ms", d)
	}
	start = time.Now()
	if err := s.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	_ = start // Ping latency is timing-dependent; only the slow path is asserted
}

func TestCrashHoldsSiteDownWithoutRebuild(t *testing.T) {
	ctx := context.Background()
	s := Wrap(newInner(), Plan{CrashAt: 1})
	for i := 0; i < 10; i++ {
		err := s.Ping(ctx)
		var f *Fault
		if !errors.As(err, &f) || f.Reason != "crashed" {
			t.Fatalf("call %d: want a crashed fault, got %v", i, err)
		}
	}
	// Identity stays reachable — the cluster must keep existing around a
	// dead site.
	if s.ID() != 3 {
		t.Error("identity accessors must not fault")
	}
}

// TestCrashRestartLosesState: after CrashAt the site fails every call
// until RestartAfter further calls have failed, then rebuild() brings
// it back with fresh state — the deposit landed before the crash is
// gone, exactly like a process restart.
func TestCrashRestartLosesState(t *testing.T) {
	ctx := context.Background()
	rebuilds := 0
	s := WrapRestartable(func() core.SiteAPI {
		rebuilds++
		return newInner()
	}, Plan{CrashAt: 2, RestartAfter: 2})
	first := s.Inner()
	batch := workload.EMPData()
	if err := s.Deposit(ctx, "t1", batch, ""); err != nil { // call 1: lands
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // calls 2, 3: crashed
		err := s.Ping(ctx)
		var f *Fault
		if !errors.As(err, &f) || f.Reason != "crashed" {
			t.Fatalf("down call %d: want a crashed fault, got %v", i, err)
		}
	}
	if err := s.Ping(ctx); err != nil { // call 4: restarted
		t.Fatalf("post-restart call: %v", err)
	}
	if rebuilds != 2 { // once for Wrap, once for the restart
		t.Errorf("rebuild ran %d times, want 2", rebuilds)
	}
	if s.Inner() == first {
		t.Error("restart must replace the inner site")
	}
	if n := s.PendingDeposits(); n != 0 {
		t.Errorf("restarted site still holds %d deposit tasks — state loss is the point", n)
	}
}

// TestWrapListenerResets: every ConnResetEvery-th accepted connection
// dies with a reset after its I/O budget; the others live.
func TestWrapListenerResets(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if same := WrapListener(base, Plan{}); same != base {
		t.Error("a plan without a reset schedule must return the listener unchanged")
	}
	lis := WrapListener(base, Plan{ConnResetEvery: 2, ConnResetOps: 4})
	go func() { // echo server over the faulty listener
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(c, c); c.Close() }()
		}
	}()
	roundTrips := func() (int, error) {
		c, err := net.Dial("tcp", base.Addr().String())
		if err != nil {
			return 0, err
		}
		defer c.Close()
		buf := make([]byte, 4)
		for i := 0; i < 10; i++ {
			c.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Write([]byte("ping")); err != nil {
				return i, err
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				return i, err
			}
		}
		return 10, nil
	}
	if n, err := roundTrips(); n != 10 {
		t.Fatalf("connection 1 should survive, died after %d round trips: %v", n, err)
	}
	if n, err := roundTrips(); err == nil {
		t.Fatalf("connection 2 should be reset after its op budget, survived %d round trips", n)
	} else if n >= 10 {
		t.Fatalf("connection 2 died only after %d round trips", n)
	}
	if n, err := roundTrips(); n != 10 {
		t.Fatalf("connection 3 should survive, died after %d round trips: %v", n, err)
	}
}

// TestLatencySpikes: every LatencyEvery-th faultable call sleeps.
func TestLatencySpikes(t *testing.T) {
	ctx := context.Background()
	s := Wrap(newInner(), Plan{LatencyEvery: 2, Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := s.Ping(ctx); err != nil { // call 1: fast
		t.Fatal(err)
	}
	fast := time.Since(start)
	start = time.Now()
	if err := s.Ping(ctx); err != nil { // call 2: spiked
		t.Fatal(err)
	}
	slow := time.Since(start)
	if slow < 30*time.Millisecond {
		t.Errorf("spiked call took %v, want ≥ 30ms", slow)
	}
	_ = fast // the fast call's duration is timing-dependent; only the spike is asserted
}

func TestFaultErrorMessage(t *testing.T) {
	f := &Fault{Site: 2, Call: 17, Method: "Deposit", Reason: "rate"}
	want := "faulty: injected rate fault at site 2, call 17 (Deposit)"
	if f.Error() != want {
		t.Errorf("Error() = %q, want %q", f.Error(), want)
	}
}

// recordingSite is an innermost site that records what reaches the
// optional surfaces a site may expose beside core.SiteAPI.
type recordingSite struct {
	*core.Site
	closed   int
	draining bool
}

func (r *recordingSite) Close() error   { r.closed++; return nil }
func (r *recordingSite) Draining() bool { return r.draining }

// TestWrappersForwardOptionalSurfaces: wrapping a site — in an
// admission controller, a fault plan, or both — must not hide the
// optional surfaces callers type-assert for: Close, the HealthDetail
// drain signal and the no-leak PendingDeposits counter all reach the
// innermost site.
func TestWrappersForwardOptionalSurfaces(t *testing.T) {
	wraps := map[string]func(core.SiteAPI) core.SiteAPI{
		"admission": func(s core.SiteAPI) core.SiteAPI { return core.WithAdmission(s, core.AdmissionPolicy{}) },
		"faulty":    func(s core.SiteAPI) core.SiteAPI { return Wrap(s, Plan{}) },
		"admission(faulty)": func(s core.SiteAPI) core.SiteAPI {
			return core.WithAdmission(Wrap(s, Plan{}), core.AdmissionPolicy{})
		},
		"faulty(admission)": func(s core.SiteAPI) core.SiteAPI {
			return Wrap(core.WithAdmission(s, core.AdmissionPolicy{}), Plan{})
		},
	}
	for name, wrap := range wraps {
		t.Run(name, func(t *testing.T) {
			inner := &recordingSite{Site: core.NewSite(0, workload.EMPData(), relation.True())}
			w := wrap(inner)

			if err := w.(interface{ Close() error }).Close(); err != nil || inner.closed != 1 {
				t.Errorf("Close reached the site %d time(s), err %v", inner.closed, err)
			}
			drain := w.(interface{ Draining() bool })
			if drain.Draining() {
				t.Error("Draining true before the site drains")
			}
			inner.draining = true
			if !drain.Draining() {
				t.Error("the site's drain signal is hidden by the wrapper")
			}
			if err := inner.Deposit(context.Background(), "t/b0", workload.EMPData(), ""); err != nil {
				t.Fatal(err)
			}
			if n := w.(interface{ PendingDeposits() int }).PendingDeposits(); n != 1 {
				t.Errorf("PendingDeposits = %d, want the site's 1", n)
			}
		})
	}
}
