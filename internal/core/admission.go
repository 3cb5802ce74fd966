package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Admission control. A site under the paper's protocol accepts every
// request; a production site must be able to say "not now". This layer
// wraps a SiteAPI with a bounded concurrent-work semaphore plus a
// bounded wait queue: a call past the concurrency limit waits at most
// MaxWait for a slot, a call past the queue limit fails immediately,
// and either rejection is the typed CodeOverloaded error carrying a
// retry-after hint the coordinator's backoff honors. The same wrapper
// owns the drain state machine: Drain() stops admitting work, lets
// in-flight calls finish (bounded by DrainTimeout), and rejects new
// work with the typed CodeDraining error, which FailDegrade treats as
// "reroute or exclude", never as a dead site.
//
// Liveness stays orthogonal to load: Ping, the identity accessors and
// the cleanup messages (Abort, Cancel, DropSession) bypass admission —
// an overloaded or draining site is alive, must answer health probes,
// and must keep releasing deposit buffers. The forwarding itself is
// Intercept's; this file is only the gate.

// AdmissionPolicy bounds concurrent work at one site. The zero value
// of any field selects its default.
type AdmissionPolicy struct {
	// MaxConcurrent is the number of work calls allowed to execute at
	// once. Default 8.
	MaxConcurrent int
	// MaxQueue bounds how many calls may wait for a slot; a call
	// arriving past the queue is rejected immediately. Default 16.
	MaxQueue int
	// MaxWait bounds how long a queued call waits for a slot before it
	// is rejected as overloaded; it is also the retry-after hint an
	// Overloaded rejection carries. Default 50ms.
	MaxWait time.Duration
	// DrainTimeout bounds Drain(): in-flight work still running when it
	// elapses is abandoned to its own context. Default 5s.
	DrainTimeout time.Duration
}

func (p AdmissionPolicy) withDefaults() AdmissionPolicy {
	if p.MaxConcurrent <= 0 {
		p.MaxConcurrent = 8
	}
	if p.MaxQueue <= 0 {
		p.MaxQueue = 16
	}
	if p.MaxWait <= 0 {
		p.MaxWait = 50 * time.Millisecond
	}
	if p.DrainTimeout <= 0 {
		p.DrainTimeout = 5 * time.Second
	}
	return p
}

// Drainer is the optional graceful-shutdown surface a site may expose
// alongside SiteAPI. It is deliberately not part of SiteAPI — drain is
// an operator action (SIGTERM, the Drain RPC), not a detection step —
// so callers type-assert for it.
type Drainer interface {
	// Drain stops admitting new work and waits for in-flight work to
	// finish, bounded by the policy's DrainTimeout and by ctx. New work
	// is rejected with CodeDraining from the moment Drain is entered,
	// whether or not the wait finished cleanly.
	Drain(ctx context.Context) error
	// Resume re-opens admission after a drain (operator rollback).
	Resume()
	// Draining reports whether the site is currently refusing new work.
	Draining() bool
}

// Admission is the admission-controlled view of a site. Wrap every
// serving site with WithAdmission; it is safe for concurrent use.
type Admission struct {
	Intercept
	inner  SiteAPI
	policy AdmissionPolicy
	sem    chan struct{}

	mu       sync.Mutex
	active   int
	waiters  int
	draining bool
	idle     chan struct{} // non-nil while a Drain waits; closed at active==0
}

// WithAdmission wraps s with an admission controller under policy
// (zero fields take defaults).
func WithAdmission(s SiteAPI, policy AdmissionPolicy) *Admission {
	p := policy.withDefaults()
	a := &Admission{inner: s, policy: p, sem: make(chan struct{}, p.MaxConcurrent)}
	a.Intercept = NewIntercept(a.Inner, a.admit)
	return a
}

// Inner returns the wrapped site (tests and metrics look behind the
// controller).
func (a *Admission) Inner() SiteAPI { return a.inner }

// Policy returns the effective (defaulted) policy.
func (a *Admission) Policy() AdmissionPolicy { return a.policy }

// Active returns the number of work calls currently executing.
func (a *Admission) Active() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

func (a *Admission) drainingErr() error {
	return NotRun(CodeDraining, "core: site %d draining, not accepting work", a.inner.ID())
}

func (a *Admission) overloadedErr(queued bool) error {
	why := "wait queue full"
	if queued {
		why = "no slot within wait budget"
	}
	err := NotRun(CodeOverloaded, "core: site %d overloaded (%s), retry after %v", a.inner.ID(), why, a.policy.MaxWait)
	err.RetryAfter = a.policy.MaxWait
	return err
}

// acquire admits one work call: it returns a release func on success,
// or the typed rejection. The fast path (free slot, not draining) is
// one mutex acquisition and a non-blocking channel send.
func (a *Admission) acquire(ctx context.Context) (func(), error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, a.drainingErr()
	}
	select {
	case a.sem <- struct{}{}:
		a.active++
		a.mu.Unlock()
		return a.release, nil
	default:
	}
	if a.waiters >= a.policy.MaxQueue {
		a.mu.Unlock()
		return nil, a.overloadedErr(false)
	}
	a.waiters++
	a.mu.Unlock()

	t := time.NewTimer(a.policy.MaxWait)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		a.mu.Lock()
		a.waiters--
		if a.draining {
			// Drain began while this call was queued; it must not start.
			a.mu.Unlock()
			<-a.sem
			return nil, a.drainingErr()
		}
		a.active++
		a.mu.Unlock()
		return a.release, nil
	case <-t.C:
		a.mu.Lock()
		a.waiters--
		a.mu.Unlock()
		return nil, a.overloadedErr(true)
	case <-ctx.Done():
		a.mu.Lock()
		a.waiters--
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

func (a *Admission) release() {
	a.mu.Lock()
	a.active--
	if a.active == 0 && a.idle != nil {
		close(a.idle)
		a.idle = nil
	}
	a.mu.Unlock()
	<-a.sem
}

// admit is the Intercept hook: every work call runs admitted. Ping is
// let through — liveness is orthogonal to load, an overloaded or
// draining site answers its health probe.
func (a *Admission) admit(ctx context.Context, method string, call func(SiteAPI) error) error {
	if method == "Ping" {
		return call(a.inner)
	}
	release, err := a.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	return call(a.inner)
}

// Drain implements Drainer: new work is rejected with CodeDraining
// from this moment on; the call returns once in-flight work finished,
// or with an error when DrainTimeout (or ctx) expired first — the
// drain state holds either way.
func (a *Admission) Drain(ctx context.Context) error {
	a.mu.Lock()
	a.draining = true
	if a.active == 0 {
		a.mu.Unlock()
		return nil
	}
	if a.idle == nil {
		a.idle = make(chan struct{})
	}
	idle := a.idle
	a.mu.Unlock()

	t := time.NewTimer(a.policy.DrainTimeout)
	defer t.Stop()
	select {
	case <-idle:
		return nil
	case <-t.C:
		return fmt.Errorf("core: site %d drain timed out after %v with %d call(s) still in flight",
			a.inner.ID(), a.policy.DrainTimeout, a.Active())
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Resume implements Drainer: admission re-opens.
func (a *Admission) Resume() {
	a.mu.Lock()
	a.draining = false
	a.mu.Unlock()
}

// Draining implements Drainer. The inner site's drain state is
// consulted too, so a client-side controller wrapped around a remote
// proxy still surfaces the remote drain signal in HealthDetail.
func (a *Admission) Draining() bool {
	a.mu.Lock()
	d := a.draining
	a.mu.Unlock()
	return d || a.Intercept.Draining()
}

var (
	_ SiteAPI = (*Admission)(nil)
	_ Drainer = (*Admission)(nil)
)
