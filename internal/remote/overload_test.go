// Overload and drain across the wire: the v7 envelope's retry-after
// param, the per-task deadline stamp, the Drain RPC end to end, and
// the loud one-shot rejection of a peer on another wire version.
package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distcfd/internal/core"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// --- wire v7 envelope params ---

// TestErrorEnvelopeRetryAfter pins the backpressure hint round trip:
// an overloaded rejection crosses net/rpc's string flattening with its
// retry-after intact, typed, and marked not-executed so even
// non-idempotent calls stay retryable.
func TestErrorEnvelopeRetryAfter(t *testing.T) {
	enc := encodeError(&core.CodedError{
		Code: core.CodeOverloaded, Msg: "site 2: queue full",
		NotExecuted: true, RetryAfter: 50 * time.Millisecond,
	})
	if s := enc.Error(); s != "[distcfd:overloaded,retry-after=50ms] site 2: queue full" {
		t.Fatalf("envelope = %q", s)
	}
	dec := decodeError(rpc.ServerError(enc.Error()))
	var ce *core.CodedError
	if !errors.As(dec, &ce) || ce.Code != core.CodeOverloaded {
		t.Fatalf("decoded %T %v, want *CodedError with CodeOverloaded", dec, dec)
	}
	if ce.RetryAfter != 50*time.Millisecond {
		t.Errorf("retry-after hint lost across the envelope: %v", ce.RetryAfter)
	}
	if !ce.NotExecuted {
		t.Error("admission rejections must decode as pre-execution")
	}
}

// TestErrorEnvelopeParamFree: a v7 code with no params (or a peer that
// never filled the hint) decodes to a zero hint, not a parse error.
func TestErrorEnvelopeParamFree(t *testing.T) {
	for _, raw := range []string{
		"[distcfd:overloaded] site busy",
		"[distcfd:draining] going away",
	} {
		dec := decodeError(rpc.ServerError(raw))
		var ce *core.CodedError
		if !errors.As(dec, &ce) {
			t.Fatalf("%q did not decode to a CodedError: %v", raw, dec)
		}
		if ce.RetryAfter != 0 {
			t.Errorf("%q invented a retry-after hint: %v", raw, ce.RetryAfter)
		}
		if !ce.NotExecuted {
			t.Errorf("%q must decode as pre-execution", raw)
		}
	}
	// Draining carries the hint too when the site sets one.
	enc := encodeError(&core.CodedError{
		Code: core.CodeDraining, Msg: "retiring", NotExecuted: true, RetryAfter: time.Second,
	})
	dec := decodeError(rpc.ServerError(enc.Error()))
	var ce *core.CodedError
	if !errors.As(dec, &ce) || ce.Code != core.CodeDraining || ce.RetryAfter != time.Second {
		t.Errorf("draining hint lost: %v", dec)
	}
}

// --- deadline propagation ---

// TestWorkCtxDeadlineStamp pins the server half of deadline
// propagation: a zero budget serves under the base context alone, a
// positive one bounds it on the site's own clock, and a spent one
// cancels before the site work starts.
func TestWorkCtxDeadlineStamp(t *testing.T) {
	s := NewSiteServiceContext(context.Background(), nil, nil)

	ctx, cancel := s.workCtx(0)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero budget must not invent a deadline")
	}

	before := time.Now()
	ctx, cancel = s.workCtx(time.Hour)
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || dl.Before(before.Add(time.Hour)) || dl.After(time.Now().Add(time.Hour)) {
		t.Errorf("budgeted deadline = %v %v, want an hour from the call", dl, ok)
	}

	ctx, cancel = s.workCtx(-1)
	defer cancel()
	if ctx.Err() == nil {
		t.Error("a spent budget must cancel before the work starts")
	}
}

// recordingSiteService answers the handshake at the given version and
// records every DepositArgs it receives — the fixture for pinning what
// a driver actually stamps on the wire.
type recordingSiteService struct {
	schema   *relation.Schema
	version  int
	mu       sync.Mutex
	deposits []DepositArgs
}

func (s *recordingSiteService) Info(_ struct{}, reply *InfoReply) error {
	reply.ID = 0
	reply.Pred = relation.True()
	reply.Schema = SchemaToWire(s.schema)
	reply.Version = s.version
	return nil
}

func (s *recordingSiteService) Deposit(args DepositArgs, _ *struct{}) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deposits = append(s.deposits, args)
	return nil
}

func (s *recordingSiteService) recorded(t *testing.T, i int) DepositArgs {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.deposits) <= i {
		t.Fatalf("recorded %d deposits, want at least %d", len(s.deposits), i+1)
	}
	return s.deposits[i]
}

// startRecordingSite serves svc under the given rpc service name on a
// loopback listener and returns its address and a count of the
// connections it accepted.
func startRecordingSite(t *testing.T, rpcName string, svc *recordingSiteService) (string, *atomic.Int32) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	srv := rpc.NewServer()
	if err := srv.RegisterName(rpcName, svc); err != nil {
		t.Fatal(err)
	}
	accepts := new(atomic.Int32)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go srv.ServeConn(conn)
		}
	}()
	return lis.Addr().String(), accepts
}

// TestDeadlineStampedAtV7 pins the client half: the driver's context
// deadline crosses the wire as what is left of it when the call is
// sent, and a deadline-free context stamps zero.
func TestDeadlineStampedAtV7(t *testing.T) {
	svc := &recordingSiteService{schema: workload.CustSchema(), version: WireVersion}
	addr, _ := startRecordingSite(t, serviceName, svc)
	sites, _, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	r := sites[0].(*RemoteSite)
	defer r.Close()

	batch := workload.Cust(workload.CustConfig{N: 20, Seed: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := r.Deposit(ctx, "job/d0", batch, ""); err != nil {
		t.Fatal(err)
	}
	if got := svc.recorded(t, 0).Budget; got <= 0 || got > time.Minute {
		t.Errorf("stamped budget %v, want what is left of a minute", got)
	}

	if err := r.Deposit(context.Background(), "job/d1", batch, ""); err != nil {
		t.Fatal(err)
	}
	if got := svc.recorded(t, 1).Budget; got != 0 {
		t.Errorf("deadline-free context stamped %v, want 0", got)
	}
}

// --- version skew ---

// TestDialRejectsOtherServiceName: a peer that serves another protocol
// version answers the Info probe with can't-find-service. That is
// version skew, which no retry can fix — one connect attempt, then a
// permanent error naming both sides — not a transient handshake
// failure to back off and re-dial.
func TestDialRejectsOtherServiceName(t *testing.T) {
	svc := &recordingSiteService{schema: workload.CustSchema(), version: WireVersion - 1}
	addr, accepts := startRecordingSite(t, fmt.Sprintf("SiteV%d", WireVersion-1), svc)
	_, _, err := Dial([]string{addr})
	if err == nil {
		t.Fatal("dialing a site on another service name must fail")
	}
	if _, permanent := err.(permanentDialError); !permanent {
		t.Errorf("want a permanent dial error, got %T: %v", err, err)
	}
	for _, want := range []string{"version skew", serviceName, fmt.Sprintf("wire version %d", WireVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("skew error should mention %q: %v", want, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("site saw %d connect attempts, want exactly 1", n)
	}
}

// --- Drain RPC end to end ---

// drainFixture serves an admission-wrapped core site over loopback TCP
// and returns the negotiated client proxy plus the server-side
// controller.
func drainFixture(t *testing.T, wrap bool) (*RemoteSite, *core.Admission) {
	t.Helper()
	frag := workload.Cust(workload.CustConfig{N: 50, Seed: 1})
	var api core.SiteAPI = core.NewSite(0, frag, relation.True())
	var adm *core.Admission
	if wrap {
		adm = core.WithAdmission(api, core.AdmissionPolicy{DrainTimeout: 2 * time.Second})
		api = adm
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = ServeAPIContext(ctx, lis, api, frag.Schema()) }()

	sites, _, err := Dial([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	r := sites[0].(*RemoteSite)
	t.Cleanup(func() { r.Close() })
	return r, adm
}

// TestRemoteDrainRoundTrip walks the operator surface over real TCP:
// Drain latches on both ends, work is refused with the typed draining
// error (decoded through the envelope, pre-execution), liveness stays
// open, and Resume restores service.
func TestRemoteDrainRoundTrip(t *testing.T) {
	r, adm := drainFixture(t, true)
	ctx := context.Background()
	batch := workload.Cust(workload.CustConfig{N: 20, Seed: 4})
	if err := r.Deposit(ctx, "job/t0", batch, ""); err != nil {
		t.Fatalf("deposit before drain: %v", err)
	}

	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !r.Draining() || !adm.Draining() {
		t.Fatalf("drain did not latch on both ends: client=%v server=%v", r.Draining(), adm.Draining())
	}
	err := r.Deposit(ctx, "job/t0", batch, "")
	var ce *core.CodedError
	if !errors.As(err, &ce) || ce.Code != core.CodeDraining || !ce.NotExecuted {
		t.Fatalf("work during drain = %v, want pre-execution CodeDraining", err)
	}
	if err := r.Ping(ctx); err != nil {
		t.Errorf("Ping must stay open during a drain: %v", err)
	}
	if err := r.Abort("job/t0"); err != nil {
		t.Errorf("cleanup must stay open during a drain: %v", err)
	}

	r.Resume()
	if r.Draining() || adm.Draining() {
		t.Fatalf("Resume did not clear the drain state: client=%v server=%v", r.Draining(), adm.Draining())
	}
	if err := r.Deposit(ctx, "job/t1", batch, ""); err != nil {
		t.Fatalf("deposit after Resume: %v", err)
	}
	if err := r.Abort("job/t1"); err != nil {
		t.Fatal(err)
	}
	if n := adm.PendingDeposits(); n != 0 {
		t.Errorf("%d deposits left buffered after cleanup", n)
	}
}

// TestRemoteDrainNeedsAdmission: a site served without the admission
// wrapper has no drain surface; the RPC reports that in operator terms
// and the client latches nothing.
func TestRemoteDrainNeedsAdmission(t *testing.T) {
	r, _ := drainFixture(t, false)
	err := r.Drain(context.Background())
	if err == nil {
		t.Fatal("Drain against an unwrapped site must fail")
	}
	if !strings.Contains(err.Error(), "no admission controller") {
		t.Errorf("rejection should tell the operator how to fix it: %v", err)
	}
	if r.Draining() {
		t.Error("a failed Drain must not latch the drain state")
	}
}
