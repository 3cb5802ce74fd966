// Admission-controller unit tests: bounded concurrency, bounded
// queueing, typed overload/draining rejections, and the drain state
// machine — all driven through a gated inner site, so every transition
// is deterministic (no sleeps standing in for synchronization).
package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"distcfd/internal/core"
	"distcfd/internal/relation"
)

// gatedSite blocks Deposit until the gate opens, reporting entry on
// entered — the controllable "in-flight work" of the admission tests.
type gatedSite struct {
	core.SiteAPI
	gate    chan struct{}
	entered chan struct{}
}

func (s *gatedSite) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	s.entered <- struct{}{}
	<-s.gate
	return s.SiteAPI.Deposit(ctx, task, batch, nonce)
}

func admissionFixture(t *testing.T, p core.AdmissionPolicy) (*core.Admission, *gatedSite, *relation.Relation) {
	t.Helper()
	sch, err := relation.NewSchema("d", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(sch)
	if err := r.Append(relation.Tuple{"1", "2"}); err != nil {
		t.Fatal(err)
	}
	g := &gatedSite{
		SiteAPI: core.NewSite(0, r, relation.True()),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 64),
	}
	return core.WithAdmission(g, p), g, r
}

// waitFor polls cond with a generous deadline — used only where the
// observed state is monotone (a queued waiter, a latched drain flag).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestAdmissionDefaults(t *testing.T) {
	adm, _, _ := admissionFixture(t, core.AdmissionPolicy{})
	p := adm.Policy()
	if p.MaxConcurrent != 8 || p.MaxQueue != 16 || p.MaxWait != 50*time.Millisecond ||
		p.DrainTimeout != 5*time.Second {
		t.Fatalf("unexpected defaulted policy: %+v", p)
	}
}

// TestAdmissionQueueFullRejects: with the one slot held and the
// one-deep queue occupied, the next call is rejected immediately with
// the typed overloaded error carrying the retry-after hint.
func TestAdmissionQueueFullRejects(t *testing.T) {
	adm, g, batch := admissionFixture(t, core.AdmissionPolicy{
		MaxConcurrent: 1, MaxQueue: 1, MaxWait: time.Minute,
	})
	ctx := context.Background()
	done1 := make(chan error, 1)
	go func() { done1 <- adm.Deposit(ctx, "t", batch, "n1") }()
	<-g.entered // call 1 holds the slot inside the site

	done2 := make(chan error, 1)
	go func() { done2 <- adm.Deposit(ctx, "t", batch, "n2") }()
	waitFor(t, "call 2 to queue", func() bool { return adm.Queued() == 1 })

	start := time.Now()
	err := adm.Deposit(ctx, "t", batch, "n3")
	if core.ErrCodeOf(err) != core.CodeOverloaded {
		t.Fatalf("queue-full rejection = %v, want CodeOverloaded", err)
	}
	var ce *core.CodedError
	if !errors.As(err, &ce) || !ce.NotExecuted || ce.RetryAfter != time.Minute {
		t.Fatalf("overloaded error not typed for retry: %+v", ce)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("queue-full rejection waited %v; must fail fast", d)
	}

	close(g.gate)
	if err := <-done1; err != nil {
		t.Fatalf("admitted call 1 failed: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("queued call 2 should get the freed slot: %v", err)
	}
	if adm.Active() != 0 || adm.Queued() != 0 {
		t.Fatalf("controller not quiescent: active=%d queued=%d", adm.Active(), adm.Queued())
	}
}

// TestAdmissionWaitTimeoutRejects: a queued call that never gets a
// slot within MaxWait is rejected as overloaded, not blocked forever.
func TestAdmissionWaitTimeoutRejects(t *testing.T) {
	adm, g, batch := admissionFixture(t, core.AdmissionPolicy{
		MaxConcurrent: 1, MaxQueue: 4, MaxWait: 10 * time.Millisecond,
	})
	defer close(g.gate)
	ctx := context.Background()
	done1 := make(chan error, 1)
	go func() { done1 <- adm.Deposit(ctx, "t", batch, "n1") }()
	<-g.entered

	err := adm.Deposit(ctx, "t", batch, "n2")
	if core.ErrCodeOf(err) != core.CodeOverloaded {
		t.Fatalf("wait-timeout rejection = %v, want CodeOverloaded", err)
	}
	var ce *core.CodedError
	if !errors.As(err, &ce) || !ce.NotExecuted || ce.RetryAfter != 10*time.Millisecond {
		t.Fatalf("overloaded error not typed for retry: %+v", ce)
	}
}

// TestAdmissionDrainLifecycle walks the full state machine: drain
// waits for in-flight work, rejects new work with the typed draining
// error meanwhile and after, and Resume re-opens admission.
func TestAdmissionDrainLifecycle(t *testing.T) {
	adm, g, batch := admissionFixture(t, core.AdmissionPolicy{
		MaxConcurrent: 2, DrainTimeout: time.Minute,
	})
	ctx := context.Background()
	done1 := make(chan error, 1)
	go func() { done1 <- adm.Deposit(ctx, "t", batch, "n1") }()
	<-g.entered

	drained := make(chan error, 1)
	go func() { drained <- adm.Drain(ctx) }()
	waitFor(t, "drain to latch", adm.Draining)

	if err := adm.Deposit(ctx, "t", batch, "n2"); core.ErrCodeOf(err) != core.CodeDraining {
		t.Fatalf("work during drain = %v, want CodeDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a call still in flight", err)
	default:
	}

	close(g.gate)
	if err := <-done1; err != nil {
		t.Fatalf("in-flight call must finish during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v after in-flight work finished", err)
	}
	if err := adm.Deposit(ctx, "t", batch, "n3"); core.ErrCodeOf(err) != core.CodeDraining {
		t.Fatalf("work after drain = %v, want CodeDraining (drain state holds)", err)
	}

	adm.Resume()
	if adm.Draining() {
		t.Fatal("Resume did not clear the drain state")
	}
	if err := adm.Deposit(ctx, "t", batch, "n4"); err != nil {
		t.Fatalf("work after Resume failed: %v", err)
	}
}

// TestAdmissionDrainTimeout: in-flight work that outlives DrainTimeout
// makes Drain return an error, and the drain state still holds.
func TestAdmissionDrainTimeout(t *testing.T) {
	adm, g, batch := admissionFixture(t, core.AdmissionPolicy{
		MaxConcurrent: 1, DrainTimeout: 10 * time.Millisecond,
	})
	ctx := context.Background()
	done1 := make(chan error, 1)
	go func() { done1 <- adm.Deposit(ctx, "t", batch, "n1") }()
	<-g.entered

	if err := adm.Drain(ctx); err == nil {
		t.Fatal("Drain must report the in-flight call it abandoned")
	}
	if !adm.Draining() {
		t.Fatal("a timed-out drain must still hold the drain state")
	}
	close(g.gate)
	if err := <-done1; err != nil {
		t.Fatalf("abandoned in-flight call still owns its context: %v", err)
	}
}

// TestAdmissionQueuedCallRejectedByDrain: a call already waiting in
// the queue when Drain begins must not start — it gets the typed
// draining error even if a slot frees up for it.
func TestAdmissionQueuedCallRejectedByDrain(t *testing.T) {
	adm, g, batch := admissionFixture(t, core.AdmissionPolicy{
		MaxConcurrent: 1, MaxQueue: 1, MaxWait: time.Minute, DrainTimeout: time.Minute,
	})
	ctx := context.Background()
	done1 := make(chan error, 1)
	go func() { done1 <- adm.Deposit(ctx, "t", batch, "n1") }()
	<-g.entered
	done2 := make(chan error, 1)
	go func() { done2 <- adm.Deposit(ctx, "t", batch, "n2") }()
	waitFor(t, "call 2 to queue", func() bool { return adm.Queued() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- adm.Drain(ctx) }()
	waitFor(t, "drain to latch", adm.Draining)
	close(g.gate)

	if err := <-done1; err != nil {
		t.Fatalf("in-flight call must finish: %v", err)
	}
	if err := <-done2; core.ErrCodeOf(err) != core.CodeDraining {
		t.Fatalf("queued call woken during drain = %v, want CodeDraining", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}
}

// TestAdmissionBypass: liveness and cleanup stay open during a drain —
// Ping, the identity accessors, Abort/Cancel/DropSession all answer
// while work is refused.
func TestAdmissionBypass(t *testing.T) {
	adm, _, batch := admissionFixture(t, core.AdmissionPolicy{})
	ctx := context.Background()
	if err := adm.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := adm.Ping(ctx); err != nil {
		t.Fatalf("Ping during drain: %v", err)
	}
	if _, err := adm.NumTuples(); err != nil {
		t.Fatalf("NumTuples during drain: %v", err)
	}
	if _, err := adm.Predicate(); err != nil {
		t.Fatalf("Predicate during drain: %v", err)
	}
	if err := adm.Abort("task"); err != nil {
		t.Fatalf("Abort during drain: %v", err)
	}
	if err := adm.Cancel("task"); err != nil {
		t.Fatalf("Cancel during drain: %v", err)
	}
	if err := adm.DropSession("sess"); err != nil {
		t.Fatalf("DropSession during drain: %v", err)
	}
	if err := adm.Deposit(ctx, "t", batch, "n"); core.ErrCodeOf(err) != core.CodeDraining {
		t.Fatalf("work during drain = %v, want CodeDraining", err)
	}
}
