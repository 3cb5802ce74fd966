// Package faulty is the fault-injection harness: it wraps a
// core.SiteAPI (and, separately, a net.Listener) so that a seeded,
// deterministic plan of failures plays out against otherwise healthy
// code. The robustness tests use it to prove the retry/degrade layer's
// contracts — byte-identical results under transient faults, coherent
// partial results under dead sites, zero leaked deposits everywhere —
// and cfdsite's -fault-plan flag serves a faulty view over a real
// socket for end-to-end chaos runs.
//
// Injected faults happen strictly before the wrapped call executes,
// and say so: a Fault unwraps to a not-executed core.CodeUnavailable
// error, which the core retry layer keys on, so even non-idempotent
// operations may be retried through it.
package faulty

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"distcfd/internal/core"
)

// Plan is a deterministic, seedable fault schedule. The zero value
// injects nothing.
type Plan struct {
	// Seed drives the random-rate draws; two wrappers with equal plans
	// inject the same fault sequence for the same call sequence.
	Seed int64
	// Rate is the per-call probability of an injected failure over the
	// faultable methods (everything but identity accessors, the cleanup
	// messages, and Ping). Ping is exempt by design: rate faults model
	// load-dependent work failures, and the production regime the
	// breaker must survive is exactly a cheap liveness probe succeeding
	// while every work call fails. Fault Ping explicitly (err=Ping@n)
	// or kill the whole site (crash) instead.
	Rate float64
	// ErrOn schedules exact failures: method name → 1-based per-method
	// call ordinals that fail. "Deposit":[3] fails the third Deposit.
	ErrOn map[string][]int
	// LatencyEvery > 0 sleeps Latency before every LatencyEvery-th
	// faultable call (a latency spike, not a failure).
	LatencyEvery int
	Latency      time.Duration
	// CrashAt > 0 crashes the site when the global faultable-call
	// counter reaches it: the call fails and the site stays down. With
	// a rebuild function (WrapRestartable) and RestartAfter > 0, the
	// site comes back — with freshly rebuilt state, i.e. total loss of
	// deposits, sessions and caches — after RestartAfter further calls
	// have failed against the corpse.
	CrashAt      int
	RestartAfter int
	// ConnResetEvery/ConnResetOps drive WrapListener: every
	// ConnResetEvery-th accepted connection is killed with ECONNRESET
	// after ConnResetOps reads+writes.
	ConnResetEvery int
	ConnResetOps   int

	// Overload fault classes. These
	// inject typed admission rejections rather than *Fault transport
	// failures, exercising the coordinator's backpressure handling:
	// OverloadEvery > 0 rejects every OverloadEvery-th work call with a
	// core.CodeOverloaded error carrying OverloadRetryAfter as its
	// retry-after hint (a full wait queue); DrainAfter > 0 flips the
	// site into a draining state once the global faultable-call counter
	// reaches it — every later work call is rejected with
	// core.CodeDraining (drain-mid-detect) while Ping keeps answering,
	// exactly like a site retiring gracefully; SlowOn adds a per-call
	// latency to the named methods (a slow consumer, distinct from the
	// periodic LatencyEvery spikes).
	OverloadEvery      int
	OverloadRetryAfter time.Duration
	DrainAfter         int
	SlowOn             map[string]time.Duration
}

// Parse builds a Plan from the compact flag syntax used by
// cfdsite -fault-plan:
//
//	seed=7,rate=0.1,err=Deposit@3,lat=5ms@10,crash=20,restart=5,reset=2@40
//
// plus the overload classes:
//
//	over=50ms@4,drain=30,slow=DetectTask@20ms
//
// err may repeat for several methods or ordinals; lat is
// <duration>@<every>; reset is <every>@<ops>; over is
// <retry-after>@<every>; drain is a global call ordinal; slow is
// <method>@<duration> and may repeat. Unknown keys fail.
func Parse(s string) (Plan, error) {
	p := Plan{}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faulty: field %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "rate":
			p.Rate, err = strconv.ParseFloat(v, 64)
		case "err":
			method, ord, ok := strings.Cut(v, "@")
			if !ok {
				return Plan{}, fmt.Errorf("faulty: err=%q wants method@ordinal", v)
			}
			n, perr := strconv.Atoi(ord)
			if perr != nil {
				return Plan{}, fmt.Errorf("faulty: err=%q: %v", v, perr)
			}
			if p.ErrOn == nil {
				p.ErrOn = make(map[string][]int)
			}
			p.ErrOn[method] = append(p.ErrOn[method], n)
		case "lat":
			dur, every, ok := strings.Cut(v, "@")
			if !ok {
				return Plan{}, fmt.Errorf("faulty: lat=%q wants duration@every", v)
			}
			p.Latency, err = time.ParseDuration(dur)
			if err == nil {
				p.LatencyEvery, err = strconv.Atoi(every)
			}
		case "crash":
			p.CrashAt, err = strconv.Atoi(v)
		case "restart":
			p.RestartAfter, err = strconv.Atoi(v)
		case "reset":
			every, ops, ok := strings.Cut(v, "@")
			if !ok {
				return Plan{}, fmt.Errorf("faulty: reset=%q wants every@ops", v)
			}
			p.ConnResetEvery, err = strconv.Atoi(every)
			if err == nil {
				p.ConnResetOps, err = strconv.Atoi(ops)
			}
		case "over":
			after, every, ok := strings.Cut(v, "@")
			if !ok {
				return Plan{}, fmt.Errorf("faulty: over=%q wants retry-after@every", v)
			}
			p.OverloadRetryAfter, err = time.ParseDuration(after)
			if err == nil {
				p.OverloadEvery, err = strconv.Atoi(every)
			}
		case "drain":
			p.DrainAfter, err = strconv.Atoi(v)
		case "slow":
			method, dur, ok := strings.Cut(v, "@")
			if !ok {
				return Plan{}, fmt.Errorf("faulty: slow=%q wants method@duration", v)
			}
			var d time.Duration
			d, err = time.ParseDuration(dur)
			if err == nil {
				if p.SlowOn == nil {
					p.SlowOn = make(map[string]time.Duration)
				}
				p.SlowOn[method] = d
			}
		default:
			return Plan{}, fmt.Errorf("faulty: unknown key %q", k)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faulty: parsing %q: %v", field, err)
		}
	}
	return p, nil
}

// Fault is one injected failure. It happened before the wrapped call
// ran and is retryable: it unwraps to a not-executed CodeUnavailable
// error, the one classification the retry layer and the wire envelope
// read.
type Fault struct {
	Site   int
	Call   int // global faultable-call ordinal at the wrapper
	Method string
	Reason string // "scheduled", "rate", "crashed"
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faulty: injected %s fault at site %d, call %d (%s)", f.Reason, f.Site, f.Call, f.Method)
}

// Unwrap classifies the fault for the retry layer and the wire.
func (f *Fault) Unwrap() error {
	return &core.CodedError{Code: core.CodeUnavailable, Msg: f.Error(), NotExecuted: true}
}

// Site wraps a core.SiteAPI with a fault plan. Identity accessors (ID,
// NumTuples, Predicate) and the cleanup messages (Abort, Cancel,
// DropSession) pass through unfaulted: identity must stay coherent for
// the cluster to exist at all, and cleanup is best-effort by contract
// — faulting it would only test the harness, not the detection layer.
// Ping is faultable but exempt from the rate draws and the overload
// classes: a crashed site fails its probe and err=Ping@n faults it on
// schedule, but a merely flaky or overloaded site answers Ping while
// its work calls fail — the flap regime half-open breakers live in.
// Everything else draws from the full plan. Safe for concurrent use
// (-race clean); note that under concurrency the interleaving decides
// which call a rate-draw fault lands on, while the number of draws
// stays deterministic. The forwarding itself is core.Intercept's.
type Site struct {
	core.Intercept
	plan    Plan
	rebuild func() core.SiteAPI

	mu      sync.Mutex
	inner   core.SiteAPI
	rng     *rand.Rand
	calls   int
	perM    map[string]int
	crashed bool
	downFor int
}

// Wrap wraps s under plan. The site cannot restart after a crash
// (there is nothing to rebuild it from); CrashAt therefore holds it
// down for good — the shape the degraded-result tests want.
func Wrap(s core.SiteAPI, plan Plan) *Site {
	w := &Site{plan: plan, inner: s, rng: rand.New(rand.NewSource(plan.Seed)), perM: make(map[string]int)}
	w.Intercept = core.NewIntercept(w.Inner, w.call)
	return w
}

// WrapRestartable is Wrap plus crash recovery: after a crash and
// RestartAfter further failed calls, rebuild() replaces the inner site
// — state loss included, exactly like a process restart.
func WrapRestartable(rebuild func() core.SiteAPI, plan Plan) *Site {
	w := Wrap(rebuild(), plan)
	w.rebuild = rebuild
	return w
}

// Inner returns the currently wrapped site (the rebuilt one after a
// restart). Tests use it to inspect site state behind the faults.
func (s *Site) Inner() core.SiteAPI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

// before charges one faultable call against the plan: it returns the
// inner site to use, a latency to sleep (outside the lock), or the
// injected fault.
func (s *Site) before(method string) (core.SiteAPI, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	call := s.calls
	s.perM[method]++
	ord := s.perM[method]

	if s.plan.CrashAt > 0 && !s.crashed && call >= s.plan.CrashAt && s.downFor == 0 {
		s.crashed = true
	}
	if s.crashed {
		s.downFor++
		if s.rebuild != nil && s.plan.RestartAfter > 0 && s.downFor > s.plan.RestartAfter {
			// Release the corpse's resources first: a disk-backed site
			// (core.OpenStoreSite) holds a file mapping and a WAL handle
			// on the store directory its replacement is about to reopen.
			if c, ok := s.inner.(interface{ Close() error }); ok {
				c.Close()
			}
			s.inner = s.rebuild()
			s.crashed = false
		} else {
			return nil, 0, &Fault{Site: s.inner.ID(), Call: call, Method: method, Reason: "crashed"}
		}
	}
	for _, o := range s.plan.ErrOn[method] {
		if o == ord {
			return nil, 0, &Fault{Site: s.inner.ID(), Call: call, Method: method, Reason: "scheduled"}
		}
	}
	// The rate draws and the overload classes model load-dependent work
	// failures; Ping is exempt — an overloaded, draining or flaky site
	// still answers its liveness probe (crash and err=Ping@n above are
	// how a dead probe is injected).
	if method != "Ping" {
		if s.plan.DrainAfter > 0 && call >= s.plan.DrainAfter {
			return nil, 0, core.NotRun(core.CodeDraining, "faulty: injected draining rejection at site %d, call %d (%s)", s.inner.ID(), call, method)
		}
		if s.plan.OverloadEvery > 0 && call%s.plan.OverloadEvery == 0 {
			err := core.NotRun(core.CodeOverloaded, "faulty: injected overload rejection at site %d, call %d (%s)", s.inner.ID(), call, method)
			err.RetryAfter = s.plan.OverloadRetryAfter
			return nil, 0, err
		}
		if s.plan.Rate > 0 && s.rng.Float64() < s.plan.Rate {
			return nil, 0, &Fault{Site: s.inner.ID(), Call: call, Method: method, Reason: "rate"}
		}
	}
	var lat time.Duration
	if s.plan.LatencyEvery > 0 && call%s.plan.LatencyEvery == 0 {
		lat = s.plan.Latency
	}
	if d := s.plan.SlowOn[method]; d > lat {
		lat = d
	}
	return s.inner, lat, nil
}

// call is the core.Intercept hook: every context-taking method is
// charged against the plan, then runs on the current inner site.
func (s *Site) call(_ context.Context, method string, fn func(core.SiteAPI) error) error {
	inner, lat, err := s.before(method)
	if err != nil {
		return err
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	return fn(inner)
}

var _ core.SiteAPI = (*Site)(nil)
