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

	"distcfd/internal/core"
	"distcfd/internal/faulty"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// --- satellite (a): the typed error envelope and its string fallback ---

func TestErrorEnvelopeTypedStale(t *testing.T) {
	enc := encodeError(core.ErrStaleIncremental)
	if enc == nil {
		t.Fatal("stale error must encode")
	}
	// net/rpc flattens server-side errors to strings on the wire.
	dec := decodeError(rpc.ServerError(enc.Error()))
	var ce *core.CodedError
	if !errors.As(dec, &ce) || ce.Code != core.CodeStale {
		t.Fatalf("decoded %T %v, want *CodedError with CodeStale", dec, dec)
	}
	if !core.IsStaleIncremental(dec) {
		t.Error("typed stale error not recognized by IsStaleIncremental")
	}
}

// TestErrorEnvelopeNoStringFallback: a server error without an envelope
// passes through decode untouched and is classified by nothing — not
// even when its text is the stale error's own message. Staleness
// crosses the wire as CodeStale or not at all.
func TestErrorEnvelopeNoStringFallback(t *testing.T) {
	bare := rpc.ServerError(core.ErrStaleIncremental.Error())
	dec := decodeError(bare)
	if dec != bare {
		t.Errorf("un-enveloped server error must pass through unchanged, got %v", dec)
	}
	if core.IsStaleIncremental(dec) {
		t.Error("a bare message must not be classified stale by its text")
	}
	var ce *core.CodedError
	if errors.As(dec, &ce) {
		t.Error("decode must not invent a typed error")
	}
}

// TestEncodeErrorStaleIsTyped: encodeError envelopes CodeStale for the
// errors that wrap core.ErrStaleIncremental and for nothing else — a
// plain site error whose message quotes the stale phrase (a predicate
// violation at a site whose fragment predicate constant is that
// phrase) travels as the plain error it is.
func TestEncodeErrorStaleIsTyped(t *testing.T) {
	ctx := context.Background()
	const phrase = "incremental state stale"
	schema := workload.EMPSchema()
	s := core.NewSite(0, relation.New(schema), relation.And(relation.Eq("city", phrase)))
	_, err := s.ApplyDelta(ctx, relation.Delta{Inserts: workload.EMPData().Tuples()[:1]}, "")
	if err == nil || !strings.Contains(err.Error(), phrase) {
		t.Fatalf("fixture: want a predicate-violation error quoting the phrase, got %v", err)
	}
	if enc := encodeError(err); enc != err {
		t.Errorf("a plain error quoting the phrase was enveloped: %v", enc)
	}
	dec := decodeError(rpc.ServerError(encodeError(err).Error()))
	if core.IsStaleIncremental(dec) || core.ErrCodeOf(dec) != "" {
		t.Errorf("the quoting error reads as stale on the driver side: %v", dec)
	}

	spec, err := core.SpecFromCFD(workload.EMPCFDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	_, real := s.ExtractDeltaBlocks(ctx, spec, spec.X, []int{0}, 99)
	if !errors.Is(real, core.ErrStaleIncremental) {
		t.Fatalf("fixture: want a wrapped ErrStaleIncremental, got %v", real)
	}
	dec = decodeError(rpc.ServerError(encodeError(real).Error()))
	if core.ErrCodeOf(dec) != core.CodeStale || !core.IsStaleIncremental(dec) {
		t.Errorf("a real stale error lost its type across the envelope: %v", dec)
	}
}

func TestErrorEnvelopeTransient(t *testing.T) {
	enc := encodeError(&core.CodedError{Code: core.CodeUnavailable, Msg: "remote: boom"})
	dec := decodeError(rpc.ServerError(enc.Error()))
	if core.ErrCodeOf(dec) != core.CodeUnavailable {
		t.Errorf("transient code lost across the envelope: %v", dec)
	}
	// An injected fault unwraps to CodeUnavailable; the envelope keeps
	// that code for the driver's retry layer.
	f := &faulty.Fault{Site: 1, Call: 3, Method: "Deposit", Reason: "rate"}
	dec = decodeError(rpc.ServerError(encodeError(f).Error()))
	if core.ErrCodeOf(dec) != core.CodeUnavailable {
		t.Errorf("injected fault should cross the wire as unavailable, got %v", dec)
	}
}

func TestErrorEnvelopePassthrough(t *testing.T) {
	if encodeError(nil) != nil || decodeError(nil) != nil {
		t.Error("nil must stay nil")
	}
	plain := errors.New("boom")
	if encodeError(plain) != plain {
		t.Error("uncoded errors must not grow an envelope")
	}
	if got := decodeError(plain); got != plain {
		t.Error("non-ServerError values must pass through decode")
	}
	over := rpc.ServerError("boom")
	if got := decodeError(over); got != over {
		t.Error("un-enveloped server errors must pass through decode")
	}
}

// --- satellite (b): bounded dial retry ---

// TestDialRetryEventualServer: the server comes up only after the first
// dial attempts have failed; the bounded retry with backoff reaches it.
func TestDialRetryEventualServer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // free the port; nothing listens yet
	data := workload.EMPData()
	go func() {
		time.Sleep(250 * time.Millisecond)
		lis2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		_ = ServeAPIContext(context.Background(), lis2, core.NewSite(0, data, relation.True()), data.Schema())
	}()
	sites, _, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("dial with retry should reach the late server: %v", err)
	}
	if err := sites[0].Ping(context.Background()); err != nil {
		t.Errorf("ping after retried dial: %v", err)
	}
	sites[0].(*RemoteSite).Close()
}

// TestDialRetryStopsOnPermanentError: handshake rejections (wrong site
// ID, version skew) are configuration errors — retrying cannot fix
// them, so the retry loop must bail out on the first one instead of
// burning the whole backoff schedule.
func TestDialRetryStopsOnPermanentError(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	s := relation.MustSchema("T", []string{"a"})
	go func() {
		_ = ServeAPIContext(context.Background(), lis, core.NewSite(5, relation.New(s), relation.True()), s)
	}()
	start := time.Now()
	_, _, err = Dial([]string{lis.Addr().String()})
	if err == nil {
		t.Fatal("ID mismatch should fail the handshake")
	}
	if elapsed := time.Since(start); elapsed >= dialBackoff {
		t.Errorf("permanent handshake error took %v — it retried instead of bailing", elapsed)
	}
}

// trackingListener records accepted connections so a test can sever
// them all at once — the moral equivalent of kill -9 on the server.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) severAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestRedialAfterServerRestart is the crash-then-restart shape: the
// server process dies (listener and connections gone), a new one comes
// up on the same address with different data, and the client's next
// calls fail once, then transparently redial, re-handshake, and see the
// restarted site's state.
func TestRedialAfterServerRestart(t *testing.T) {
	data := workload.EMPData()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	track := &trackingListener{Listener: lis}
	ctx1, stop1 := context.WithCancel(context.Background())
	go func() { _ = ServeAPIContext(ctx1, track, core.NewSite(0, data, relation.True()), data.Schema()) }()
	sites, _, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	r := sites[0]
	defer r.(*RemoteSite).Close()
	if err := r.Ping(context.Background()); err != nil {
		t.Fatalf("ping against the live server: %v", err)
	}
	if n, _ := r.NumTuples(); n != data.Len() {
		t.Fatalf("NumTuples = %d, want %d", n, data.Len())
	}

	// Kill the server and bring up a replacement with a smaller
	// fragment on the same address.
	stop1()
	track.severAll()
	smaller := relation.New(data.Schema())
	smaller.MustAppend(data.Tuple(0))
	var lis2 net.Listener
	for i := 0; i < 50; i++ { // the port frees as the old listener dies
		lis2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("could not rebind %s: %v", addr, err)
	}
	go func() {
		_ = ServeAPIContext(context.Background(), lis2, core.NewSite(0, smaller, relation.True()), data.Schema())
	}()
	t.Cleanup(func() { lis2.Close() })

	// The first call on the severed connection fails — transport errors
	// are not silently retried here; that is the core layer's decision —
	// and marks the connection broken.
	err = r.Ping(context.Background())
	if err == nil {
		t.Fatal("ping over a severed connection should fail")
	}
	if core.ErrCodeOf(err) != core.CodeUnavailable {
		t.Errorf("transport failure should classify unavailable, got %v", err)
	}
	// The next call redials, re-handshakes, and serves — and the
	// handshake refreshed the cached site size to the restarted state.
	if err := r.Ping(context.Background()); err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
	if n, _ := r.NumTuples(); n != smaller.Len() {
		t.Errorf("NumTuples after redial = %d, want %d (re-handshake must refresh)", n, smaller.Len())
	}
}

// TestRedialAfterConnReset drives the mid-stream reset fault: every
// accepted connection dies after its I/O budget, so the client loses
// its link repeatedly and must redial each time.
func TestRedialAfterConnReset(t *testing.T) {
	data := workload.EMPData()
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	lis := faulty.WrapListener(base, faulty.Plan{ConnResetEvery: 1, ConnResetOps: 60})
	go func() {
		_ = ServeAPIContext(context.Background(), lis, core.NewSite(0, data, relation.True()), data.Schema())
	}()
	sites, _, err := Dial([]string{base.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	r := sites[0]
	defer r.(*RemoteSite).Close()
	sawFailure, recovered := false, false
	for i := 0; i < 80; i++ {
		if err := r.Ping(context.Background()); err != nil {
			sawFailure = true
		} else if sawFailure {
			recovered = true
		}
	}
	if !sawFailure {
		t.Fatal("no connection ever reset — the fault injection did not bite")
	}
	if !recovered {
		t.Fatal("client never recovered after a reset — redial is broken")
	}
}

// TestCloseAfterTransportFailure: a transport failure already closed
// the rpc client (markBroken), so shutting the proxy down afterwards is
// a correct shutdown, not a "connection is shut down" error; Close is
// idempotent, and a closed proxy fails later calls typed.
func TestCloseAfterTransportFailure(t *testing.T) {
	data := workload.EMPData()
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	lis := faulty.WrapListener(base, faulty.Plan{ConnResetEvery: 1, ConnResetOps: 60})
	go func() {
		_ = ServeAPIContext(context.Background(), lis, core.NewSite(0, data, relation.True()), data.Schema())
	}()
	sites, _, err := Dial([]string{base.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	r := sites[0].(*RemoteSite)
	broke := false
	for i := 0; i < 80 && !broke; i++ {
		broke = r.Ping(context.Background()) != nil
	}
	if !broke {
		t.Fatal("no connection ever reset — the fault injection did not bite")
	}
	for i := 0; i < 2; i++ {
		if err := r.Close(); err != nil {
			t.Errorf("Close #%d after a transport failure = %v, want nil", i+1, err)
		}
	}
	err = r.Ping(context.Background())
	if core.ErrCodeOf(err) != core.CodeUnavailable || !strings.Contains(err.Error(), "client closed") {
		t.Errorf("call on a closed proxy = %v, want the typed client-closed unavailable error", err)
	}
}

// TestRemoteChaosDetectEquivalence is the end-to-end chaos run over
// real TCP: server-side injected call faults plus periodic connection
// resets, a FailRetry driver, and the invariant that the answer —
// violations, shipment, modeled time — is byte-identical to the
// in-process fault-free run, with zero deposits left anywhere.
func TestRemoteChaosDetectEquivalence(t *testing.T) {
	h, err := workload.EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	served := make([]*core.Site, h.N())
	addrs := make([]string, h.N())
	for i := range h.Fragments {
		base, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { base.Close() })
		pred := relation.True()
		if len(h.Predicates) > i {
			pred = h.Predicates[i]
		}
		served[i] = core.NewSite(i, h.Fragments[i], pred)
		plan := faulty.Plan{Seed: int64(i) + 21, Rate: 0.08, ConnResetEvery: 3, ConnResetOps: 400}
		api := faulty.Wrap(served[i], plan)
		lis := faulty.WrapListener(base, plan)
		go func() { _ = ServeAPIContext(context.Background(), lis, api, h.Schema) }()
		addrs[i] = base.Addr().String()
	}
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
	cfds := workload.EMPCFDs()
	want, err := core.DetectOnce(context.Background(), localCl, cfds, core.PatDetectS, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DetectOnce(context.Background(), remoteCl, cfds, core.PatDetectS, core.Options{Workers: 1, Failure: core.FailRetry}, true)
	if err != nil {
		t.Fatalf("chaos detect over TCP failed: %v", err)
	}
	for ci := range cfds {
		if !got.PerCFD[ci].SameTuples(want.PerCFD[ci]) {
			t.Errorf("cfd %d: chaos run's violations differ\n got  %v\n want %v", ci, got.PerCFD[ci], want.PerCFD[ci])
		}
	}
	if got.ShippedTuples != want.ShippedTuples {
		t.Errorf("shipped %d, fault-free ships %d", got.ShippedTuples, want.ShippedTuples)
	}
	if got.ModeledTime != want.ModeledTime {
		t.Errorf("modeled %v, fault-free %v", got.ModeledTime, want.ModeledTime)
	}
	for i, s := range served {
		if n := s.PendingDeposits(); n != 0 {
			t.Errorf("site %d still buffers %d deposit tasks", i, n)
		}
	}
}

// TestRedialHonorsCallerContext pins the redial to its caller: against
// a listener that accepts and never answers the handshake, a call with
// a 100 ms deadline through a broken proxy comes back with
// DeadlineExceeded well inside the 3 × 10 s + backoff the dial budget
// alone would allow, the proxy's lock is not held across the dial —
// NumTuples and Close return at once while it is in progress — and once
// the listener serves again a later call redials normally.
func TestRedialHonorsCallerContext(t *testing.T) {
	data := workload.EMPData()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv := rpc.NewServer()
	if err := srv.RegisterName(serviceName, NewSiteServiceContext(context.Background(), core.NewSite(0, data, relation.True()), data.Schema())); err != nil {
		t.Fatal(err)
	}
	var blackhole atomic.Bool
	var held []net.Conn
	var heldMu sync.Mutex
	t.Cleanup(func() {
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			if blackhole.Load() {
				heldMu.Lock()
				held = append(held, conn) // accepted, never answered
				heldMu.Unlock()
				continue
			}
			go srv.ServeConn(conn)
		}
	}()

	const bound = 500 * time.Millisecond
	within := func(what string, fn func()) {
		t.Helper()
		start := time.Now()
		fn()
		if d := time.Since(start); d > bound {
			t.Errorf("%s took %v, want under %v", what, d, bound)
		}
	}
	brokenProxy := func() *RemoteSite {
		t.Helper()
		blackhole.Store(false)
		sites, _, err := Dial([]string{lis.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		r := sites[0].(*RemoteSite)
		_, gen, _, _ := r.current()
		r.markBroken(gen)
		blackhole.Store(true)
		return r
	}
	pingWithDeadline := func(r *RemoteSite) error {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		return r.Ping(ctx)
	}

	t.Run("deadline-bounds-redial", func(t *testing.T) {
		r := brokenProxy()
		defer r.Close()
		within("the call", func() {
			if err := pingWithDeadline(r); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("call through a black-holed redial = %v, want DeadlineExceeded", err)
			}
		})
		blackhole.Store(false)
		if err := r.Ping(context.Background()); err != nil {
			t.Fatalf("ping once the listener serves again: %v", err)
		}
	})

	t.Run("lock-free-during-redial", func(t *testing.T) {
		r := brokenProxy()
		done := make(chan error, 1)
		go func() { done <- pingWithDeadline(r) }()
		time.Sleep(20 * time.Millisecond) // let the redial get under way
		within("NumTuples during the redial", func() {
			if n, _ := r.NumTuples(); n != data.Len() {
				t.Errorf("NumTuples = %d, want %d", n, data.Len())
			}
		})
		within("Close during the redial", func() {
			if err := r.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		if err := <-done; err == nil {
			t.Error("the in-flight call succeeded against a black hole")
		}
		if err := r.Ping(context.Background()); core.ErrCodeOf(err) != core.CodeUnavailable {
			t.Errorf("call on the closed proxy = %v, want the client-closed unavailable error", err)
		}
	})
}
