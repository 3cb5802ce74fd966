package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"distcfd/internal/dist"
)

// Fault tolerance. The paper's algorithms assume every site answers
// every request; this layer relaxes that without touching the answers:
// under FailRetry, transient site failures are absorbed by per-call
// retries with capped exponential backoff plus whole-unit re-runs, and
// the successful attempt is exactly a clean run — violation sets,
// shipment matrices and modeled time stay byte-identical to a
// fault-free execution, with the turbulence charged only to the
// metrics' fault channel. Under FailDegrade, a site that stays down
// after retries is excluded and the unit re-runs its assignment over
// the reachable fragments, reporting Partial/ExcludedSites/Coverage.
// Per-site circuit breakers stop a dead site from charging every call
// its full retry schedule; half-open recovery is probed with Ping.

// FailurePolicy selects how a detection run responds to site failures.
type FailurePolicy int

const (
	// FailFast aborts the run on the first site error (the zero value).
	FailFast FailurePolicy = iota
	// FailRetry absorbs transient site failures with bounded retries and
	// keeps the complete-answer contract: the run either reports exactly
	// what a fault-free run would, or fails.
	FailRetry
	// FailDegrade retries like FailRetry, but a site still down after
	// retries is excluded and the run completes over the reachable
	// fragments, reporting Partial, ExcludedSites and Coverage. Every
	// reported violation is a true violation of the reachable data.
	FailDegrade
)

func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "FailFast"
	case FailRetry:
		return "FailRetry"
	case FailDegrade:
		return "FailDegrade"
	default:
		return fmt.Sprintf("FailurePolicy(%d)", int(p))
	}
}

// The retry schedule under FailRetry/FailDegrade.
const (
	// callAttempts is the per-call attempt budget, first try included.
	callAttempts = 4
	// baseDelay is the backoff before the first retry, doubling per
	// attempt up to maxDelay, with jitter.
	baseDelay = 2 * time.Millisecond
	maxDelay  = 250 * time.Millisecond
	// unitAttempts bounds whole-pipeline re-runs after a failure that
	// per-call retries could not absorb (a non-idempotent call that may
	// have executed, or an exhausted call budget).
	unitAttempts = 3
)

// backoff returns the jittered delay before retry attempt n (n ≥ 1):
// baseDelay doubling per attempt, capped at maxDelay, with the upper
// half randomized so synchronized retries against one struggling site
// spread out. Jitter touches timing only, never results.
func backoff(n int) time.Duration {
	d := baseDelay
	for i := 1; i < n && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	if half := int64(d / 2); half > 0 {
		d = d/2 + time.Duration(rand.Int63n(half+1))
	}
	return d
}

// ErrCode is a machine-readable error class that survives the trip
// through net/rpc's string-typed errors (the remote layer's error
// envelope).
type ErrCode string

const (
	// CodeStale marks incremental state that can no longer serve the
	// requested delta range; the caller reseeds (ErrStaleIncremental).
	CodeStale ErrCode = "stale"
	// CodeUnavailable marks a transport- or injection-level failure —
	// the site may be fine, the call did not get through. Retryable.
	CodeUnavailable ErrCode = "unavailable"
	// CodeOverloaded marks an admission-control rejection: the site is
	// alive but its work queue is full. The call never ran. Retryable
	// after the RetryAfter hint; never fed to circuit breakers — an
	// overloaded site answered, so it must not look dead.
	CodeOverloaded ErrCode = "overloaded"
	// CodeDraining marks a site that is finishing in-flight work and
	// refuses new tasks (graceful shutdown). The call never ran. Not
	// worth per-call retries: FailDegrade reroutes or excludes instead.
	CodeDraining ErrCode = "draining"
)

// CodedError carries an ErrCode across process boundaries. The remote
// layer encodes it into an "[distcfd:<code>] msg" envelope server-side
// and decodes it back client-side; in-process it flows as-is.
type CodedError struct {
	Code ErrCode
	Msg  string
	// NotExecuted marks a failure that provably happened before the
	// call ran at the site (breaker rejection, dial failure, send-side
	// transport error), making even a non-idempotent call safe to retry.
	NotExecuted bool
	// RetryAfter is the site's backpressure hint (CodeOverloaded): do
	// not retry this site sooner. Zero means no hint. The remote layer
	// carries it in the error envelope.
	RetryAfter time.Duration
}

func (e *CodedError) Error() string { return e.Msg }

// NotRun is the error of a call that failed before it ran at the site
// (NotExecuted), so even a non-idempotent call may retry it.
func NotRun(code ErrCode, format string, args ...any) *CodedError {
	return &CodedError{Code: code, Msg: fmt.Sprintf(format, args...), NotExecuted: true}
}

// ErrCodeOf extracts the ErrCode of err, or "" when it carries none.
func ErrCodeOf(err error) ErrCode {
	var ce *CodedError
	if errors.As(err, &ce) {
		return ce.Code
	}
	return ""
}

// retryAfterOf extracts the backpressure hint of err (zero if none).
func retryAfterOf(err error) time.Duration {
	var ce *CodedError
	if errors.As(err, &ce) {
		return ce.RetryAfter
	}
	return 0
}

// isTransient reports whether err is worth retrying: an injected or
// transport-level failure, never a context death or a typed
// application error (bad schema, stale state, predicate mismatch).
// Every classified error is a CodedError (an injected fault unwraps to
// one).
func isTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	ce := (*CodedError)(nil)
	return errors.As(err, &ce) && (ce.Code == CodeUnavailable || ce.Code == CodeOverloaded || ce.Code == CodeDraining)
}

// preExecution reports whether err guarantees the call never executed.
func preExecution(err error) bool {
	ce := (*CodedError)(nil)
	return errors.As(err, &ce) && ce.NotExecuted
}

// SiteFailure attributes a failure to one site after its per-call
// retry budget was exhausted. FailDegrade uses the attribution to
// exclude the site; FailRetry to bound unit re-runs.
type SiteFailure struct {
	Site int
	Err  error
}

func (e *SiteFailure) Error() string {
	return fmt.Sprintf("core: site %d failed after retries: %v", e.Site, e.Err)
}
func (e *SiteFailure) Unwrap() error { return e.Err }

// BreakerState is one of the classic three circuit-breaker states.
type BreakerState int32

const (
	// BreakerClosed passes calls through (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls without trying the site until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single Ping probe whose outcome closes
	// or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

const (
	// breakerThreshold consecutive transient failures open a breaker.
	breakerThreshold = 5
	// breakerCooldown is how long an open breaker rejects calls before
	// admitting a half-open probe.
	breakerCooldown = 100 * time.Millisecond
)

// breaker is one site's circuit breaker. Only runs under an active
// failure policy feed it; a FailFast run calls the sites directly and
// never touches a breaker.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive transient failures
	openedAt time.Time
}

// admit gates one call: closed passes, open within cooldown rejects
// with a pre-execution unavailable error, open past cooldown turns
// half-open and probes the site with Ping — success closes the breaker
// and admits the call, failure re-opens it. A concurrent caller that
// finds the breaker already half-open is rejected rather than piling a
// second probe onto a struggling site.
func (b *breaker) admit(ctx context.Context, site int, s SiteAPI) error {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return nil
	case BreakerHalfOpen:
		b.mu.Unlock()
		return NotRun(CodeUnavailable, "core: site %d breaker half-open, probe in flight", site)
	default: // BreakerOpen
		if time.Since(b.openedAt) < breakerCooldown {
			b.mu.Unlock()
			return NotRun(CodeUnavailable, "core: site %d breaker open", site)
		}
		b.state = BreakerHalfOpen
		b.mu.Unlock()
		if err := s.Ping(ctx); err != nil {
			b.observe(false)
			return NotRun(CodeUnavailable, "core: site %d breaker probe failed: %v", site, err)
		}
		b.observe(true)
		return nil
	}
}

// observe feeds one call outcome into the breaker: success closes it,
// a transient failure counts toward the threshold (a half-open probe
// failure re-opens immediately). Non-transient application errors must
// not be fed here — a site returning "bad schema" is healthy.
func (b *breaker) observe(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= breakerThreshold {
		b.state = BreakerOpen
		b.openedAt = time.Now()
	}
}

func (b *breaker) currentState() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// faultState is the per-run fault-handling state one Detect call
// threads through all of its units: the policy, the run's view of the
// sites, the per-site exclusion mask (shared, monotone), and the
// retry/fault counters stamped once into the final metrics.
type faultState struct {
	policy FailurePolicy
	// sites is what the pipeline calls: the cluster's own slice under
	// FailFast — no wrapper, no extra call, no allocation — otherwise one
	// Intercept per site whose hook is around. Cleanup (Cancel,
	// DropSession) bypasses it: cleanup must reach a site the run gave up
	// on.
	sites []SiteAPI

	mu       sync.Mutex
	excluded []bool
	retries  []int64
	faults   []int64
}

func newFaultState(cl *Cluster, opt Options) *faultState {
	n := cl.N()
	fs := &faultState{
		policy:   opt.Failure,
		sites:    cl.sites,
		excluded: make([]bool, n),
		retries:  make([]int64, n),
		faults:   make([]int64, n),
	}
	if fs.active() {
		fs.sites = make([]SiteAPI, n)
		for i := range fs.sites {
			w := NewIntercept(func() SiteAPI { return cl.sites[i] }, fs.around(cl, i))
			fs.sites[i] = &w
		}
	}
	return fs
}

// active reports whether the fault-tolerance layer is on.
func (fs *faultState) active() bool { return fs.policy != FailFast }

func (fs *faultState) isExcluded(i int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.excluded[i]
}

// exclude marks site i unreachable; reports whether it was newly so.
func (fs *faultState) exclude(i int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.excluded[i] {
		return false
	}
	fs.excluded[i] = true
	return true
}

func (fs *faultState) excludedSites() []int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []int
	for i, x := range fs.excluded {
		if x {
			out = append(out, i)
		}
	}
	return out
}

// eligible returns the coordinator-eligibility mask for assignment:
// nil while nothing is excluded, so a fault-free run's assignment never
// consults a mask.
func (fs *faultState) eligible() []bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !slices.Contains(fs.excluded, true) {
		return nil
	}
	el := make([]bool, len(fs.excluded))
	for i, x := range fs.excluded {
		el[i] = !x
	}
	return el
}

// count bumps site i's entry of one of the run's counters (fs.retries
// or fs.faults).
func (fs *faultState) count(counter []int64, i int) {
	fs.mu.Lock()
	counter[i]++
	fs.mu.Unlock()
}

// stamp charges the run's accumulated retry/fault counters to the
// metrics' fault channel. Called exactly once per fs, by whoever
// created it, after the final metrics are assembled — unit metrics
// merge into run totals, so stamping per unit would double-count.
func (fs *faultState) stamp(m *dist.Metrics) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := range fs.retries {
		if fs.retries[i] != 0 || fs.faults[i] != 0 {
			m.AddFaultStats(i, fs.retries[i], fs.faults[i])
		}
	}
}

func (fs *faultState) totals() (retries, faults int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := range fs.retries {
		retries += fs.retries[i]
		faults += fs.faults[i]
	}
	return retries, faults
}

// errSiteExcluded guards calls routed to an already-excluded site —
// the pipeline skips excluded sites by mask, so hitting this means a
// unit compiled against the pre-exclusion site set; the unit re-runs.
var errSiteExcluded = NotRun(CodeUnavailable, "core: site excluded from degraded run")

// unitFailure decides whether a failed pipeline attempt is re-run:
// FailFast never retries; FailRetry re-runs transient failures up to
// unitAttempts; FailDegrade additionally excludes the site a
// SiteFailure blames — a newly excluded site grants a free re-run
// (each site can take an attempt down at most once), so the bound is
// unitAttempts plus the number of sites that actually died.
func (fs *faultState) unitFailure(ctx context.Context, attempt int, err error) (bool, error) {
	if !fs.active() || ctx.Err() != nil || !isTransient(err) {
		return false, err
	}
	if fs.policy == FailDegrade {
		var sf *SiteFailure
		if errors.As(err, &sf) && fs.exclude(sf.Site) {
			if len(fs.excludedSites()) >= len(fs.excluded) {
				return false, fmt.Errorf("core: every site excluded: %w", err)
			}
			return true, nil
		}
	}
	if attempt+1 >= unitAttempts {
		return false, err
	}
	if sleepCtx(ctx, backoff(attempt+1)) != nil {
		return false, err
	}
	return true, nil
}

// coverage computes the reachable-tuple fraction over fragment sizes:
// 1 when nothing is excluded (or the instance is empty).
func (fs *faultState) coverage(fragSizes []int) float64 {
	var total, reach int64
	for i, n := range fragSizes {
		total += int64(n)
		if !fs.isExcluded(i) {
			reach += int64(n)
		}
	}
	if total == 0 {
		return 1
	}
	return float64(reach) / float64(total)
}

// sleepCtx sleeps d or until ctx dies, whichever is first. A sleep
// that provably cannot complete within the ctx deadline fails fast
// with DeadlineExceeded instead of burning the remaining budget — a
// retry-after hint longer than what's left of the run means the run
// is over now, not after the deadline has silently passed.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// reissue classifies every context-taking SiteAPI method: true when a
// call may be re-issued although a failed attempt may have executed —
// pure reads, and the nonce-deduped mutations — false when it consumes
// deposits or mutates retained state, so a blind re-issue could
// double-consume. This is the one place that decision lives; a method
// missing here is treated as false, and TestEverySiteMethodClassified
// fails until it is added.
var reissue = map[string]bool{
	"Ping": true, "SigmaStats": true, "MineFrequent": true, "DetectConstantsLocal": true,
	"ExtractBlock": true, "ExtractMatching": true, "ExtractBlocksBatch": true, "ExtractDeltaBlocks": true,
	"Deposit": true, "ApplyDelta": true, // at-most-once by nonce

	"DetectTask":           false,
	"DetectAssignedSingle": false,
	"DetectAssignedSet":    false,
	"FoldDetect":           false,
}

// around is the failure policy as an Intercept hook over site i: every
// call the pipeline makes through fs.sites runs under per-call retries
// with capped exponential backoff and jitter for transient failures,
// circuit-breaker gating, and site attribution of the final error. A
// method reissue does not clear is retried only while failures provably
// happened before execution; anything murkier escalates to a unit
// re-run.
func (fs *faultState) around(cl *Cluster, site int) func(context.Context, string, func(SiteAPI) error) error {
	return func(ctx context.Context, method string, call func(SiteAPI) error) error {
		if fs.isExcluded(site) {
			return &SiteFailure{Site: site, Err: errSiteExcluded}
		}
		b := &cl.breakers[site]
		var last error
		var floor time.Duration // backpressure floor on the next backoff (retry-after hint)
		for attempt := 0; attempt < callAttempts; attempt++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if attempt > 0 {
				fs.count(fs.retries, site)
				if err := sleepCtx(ctx, max(backoff(attempt), floor)); err != nil {
					return err
				}
			}
			floor = 0
			if err := b.admit(ctx, site, cl.sites[site]); err != nil {
				fs.count(fs.faults, site)
				last = err
				continue
			}
			err := call(cl.sites[site])
			if err == nil {
				b.observe(true)
				return nil
			}
			if ctx.Err() != nil || !isTransient(err) {
				return err
			}
			fs.count(fs.faults, site)
			last = err
			switch ErrCodeOf(err) {
			case CodeOverloaded:
				// The site answered — it is alive, just saturated. Keep the
				// breaker out of it (an overloaded site must not look dead)
				// and honor its backpressure hint before the next attempt.
				floor = retryAfterOf(err)
				continue
			case CodeDraining:
				// Draining won't pass within this call's budget; escalate
				// immediately so FailDegrade reroutes the assignment via the
				// eligible mask instead of hammering a retiring site.
				return &SiteFailure{Site: site, Err: last}
			}
			b.observe(false)
			if !reissue[method] && !preExecution(err) {
				// The call may have executed; a blind re-issue could
				// double-consume deposits. Escalate to the unit level.
				break
			}
		}
		return &SiteFailure{Site: site, Err: last}
	}
}

// SiteHealth is one site's health snapshot: the circuit-breaker state
// plus whether the site is known to be draining.
type SiteHealth struct {
	Site     int
	Breaker  BreakerState
	Draining bool
}

// drainStatus is implemented by sites that expose their drain state
// cheaply: the admission wrapper reports it directly, the remote proxy
// reports the last drain signal seen on the wire. The check must not
// block — HealthDetail is a snapshot, not a probe.
type drainStatus interface{ Draining() bool }

// HealthDetail reports breaker state and drain status for every site.
// Sites a run never had trouble with report BreakerClosed; sites that
// don't expose a drain state report Draining=false.
func (cl *Cluster) HealthDetail() []SiteHealth {
	out := make([]SiteHealth, len(cl.breakers))
	for i := range cl.breakers {
		out[i] = SiteHealth{Site: i, Breaker: cl.breakers[i].currentState()}
		if d, ok := cl.sites[i].(drainStatus); ok {
			out[i].Draining = d.Draining()
		}
	}
	return out
}
