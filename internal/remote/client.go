package remote

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// DefaultDialTimeout bounds the TCP connect plus handshake of each dial
// attempt: without a bound a hung or black-holed address blocks the
// driver indefinitely.
const DefaultDialTimeout = 10 * time.Second

// dialAttempts is how many connect attempts a dial (or a redial after
// a broken connection) makes; handshake rejections (version skew, wrong
// site ID) fail immediately, retrying cannot fix them.
const dialAttempts = 3

// dialBackoff is the delay before the second dial attempt, doubling per
// attempt.
const dialBackoff = 150 * time.Millisecond

// DialConfig tunes the client side of the wire.
type DialConfig struct {
	// CallTimeout is each call's budget: it caps the caller's context,
	// the site abandons the call's work when it runs out, and a call
	// whose response has not arrived within it fails. 0 disables it
	// (calls still honor their context). A site that exceeds the budget
	// is treated as failed — its connection is dropped and the next
	// call redials.
	CallTimeout time.Duration
}

// RemoteSite is the client-side proxy implementing core.SiteAPI over a
// net/rpc connection. Every call executes at the remote site. A call
// runs under one context — the caller's, capped by the configured
// CallTimeout — whose remaining budget the site serves under too; a cancelled
// caller abandons the wait (the response, if it ever arrives, is
// discarded). The connection itself carries no deadline.
//
// A transport-level failure (connection reset, timeout, I/O error)
// marks the connection broken; the next call through the proxy
// automatically redials and re-runs the Info handshake, so a site that
// crashed and restarted is picked back up without rebuilding the
// cluster. Its serving caches re-warm on their own: they are keyed by
// spec fingerprints, which the unchanged plans re-present. Failed
// calls surface as core.CodedError with CodeUnavailable, which the
// core retry layer recognizes as transient.
type RemoteSite struct {
	id   int
	addr string
	cfg  DialConfig // cfg.CallTimeout is the per-call budget; 0 = none

	// drainSeen latches the last drain signal observed on the wire: a
	// CodeDraining rejection, or the state the site reported in reply to
	// this client's own Drain / Resume call. Cleared by a successful
	// redial (a reconnected site is a fresh process). HealthDetail reads
	// it without a probe.
	drainSeen atomic.Bool

	// redial is the one-slot semaphore that single-flights reconnects.
	// The dial itself runs outside mu — it can take the whole dial
	// budget, and Close, NumTuples, Predicate and markBroken must not
	// queue behind it — and a caller waits for the slot only as long as
	// its own context allows.
	redial chan struct{}

	mu     sync.Mutex
	client *rpc.Client
	pred   relation.Predicate
	size   int
	broken bool
	gen    uint64 // bumps per successful redial; stale failures ignore
	closed bool
}

var _ core.SiteAPI = (*RemoteSite)(nil)

// permanentDialError marks a handshake rejection no retry can fix.
type permanentDialError struct{ error }

// Dial connects to site servers in order; the position in addrs is the
// site ID the server must report. Returns the proxies and the schema
// announced by the first site. Connect and handshake are bounded by
// DefaultDialTimeout per attempt with dialAttempts attempts; use
// DialWithConfig to set a call budget.
func Dial(addrs []string) ([]core.SiteAPI, *relation.Schema, error) {
	return DialWithConfig(addrs, DialConfig{})
}

// DialWithConfig is Dial with an explicit call budget.
func DialWithConfig(addrs []string, cfg DialConfig) ([]core.SiteAPI, *relation.Schema, error) {
	var schema *relation.Schema
	sites := make([]core.SiteAPI, len(addrs))
	for i, addr := range addrs {
		//distcfd:ctxflow-ok — cluster construction: the context-free Dial API roots at Background
		client, info, err := dialSite(context.Background(), addr, i)
		if err != nil {
			return nil, nil, err
		}
		if schema == nil {
			s, err := SchemaFromWire(info.Schema)
			if err != nil {
				client.Close()
				return nil, nil, err
			}
			schema = s
		}
		sites[i] = &RemoteSite{id: i, addr: addr, cfg: cfg, redial: make(chan struct{}, 1),
			client: client, pred: info.Pred, size: info.NumTuples}
	}
	return sites, schema, nil
}

// dialSite connects and handshakes with bounded retries: transient
// connect/handshake failures back off and try again, handshake
// rejections (version skew, wrong ID) fail at once. ctx bounds the
// whole of it — connect, handshake and the backoff waits — so a redial
// on behalf of a call never outlives that call's deadline.
func dialSite(ctx context.Context, addr string, id int) (*rpc.Client, *InfoReply, error) {
	backoff := dialBackoff
	var last error
	for a := 0; a < dialAttempts; a++ {
		if a > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			backoff *= 2
		}
		client, info, err := dialOnce(ctx, addr, id)
		if err == nil {
			return client, info, nil
		}
		last = err
		if _, permanent := err.(permanentDialError); permanent {
			break
		}
	}
	return nil, nil, last
}

// isNoService reports a server reply saying the requested rpc service
// is not registered: the peer serves another protocol version (its
// service name carries the version).
func isNoService(err error) bool {
	_, ok := err.(rpc.ServerError)
	return ok && strings.Contains(err.Error(), "can't find service")
}

// skewError is the permanent handshake rejection for a peer on another
// wire version. It always names both sides' versions: rollout skew
// must be diagnosable from either side's logs alone.
func skewError(addr, peer string) error {
	return permanentDialError{fmt.Errorf("remote: version skew: site at %s speaks %s, this driver speaks wire version %d — restart the site with a matching cfdsite build",
		addr, peer, WireVersion)}
}

// dialOnce connects and handshakes once. Connect and handshake run
// under one DefaultDialTimeout budget inside ctx — a server that
// accepts but never answers Info must not hang the driver — and
// whichever ends first closes the connection.
func dialOnce(ctx context.Context, addr string, id int) (*rpc.Client, *InfoReply, error) {
	ctx, cancel := context.WithTimeout(ctx, DefaultDialTimeout)
	defer cancel()
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: dialing site %d at %s: %w", id, addr, err)
	}
	client := rpc.NewClient(conn)
	var info InfoReply
	call := client.Go(serviceName+".Info", struct{}{}, &info, make(chan *rpc.Call, 1))
	select {
	case <-call.Done:
		err = call.Error
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		client.Close()
		if isNoService(err) {
			return nil, nil, skewError(addr, fmt.Sprintf("another wire version (it does not serve %s)", serviceName))
		}
		return nil, nil, fmt.Errorf("remote: handshake with %s: %w", addr, err)
	}
	if info.Version != WireVersion {
		client.Close()
		peer := fmt.Sprintf("wire version %d", info.Version)
		if info.Version == 0 {
			peer = "wire version 1 (or an unversioned pre-handshake build)"
		}
		return nil, nil, skewError(addr, peer)
	}
	if info.ID != id {
		client.Close()
		return nil, nil, permanentDialError{fmt.Errorf("remote: site at %s reports ID %d, expected %d", addr, info.ID, id)}
	}
	return client, &info, nil
}

// Drain asks the site to retire gracefully: stop admitting work,
// finish what's in flight. The site must serve an admission controller
// (cfdsite -admit).
func (r *RemoteSite) Drain(ctx context.Context) error {
	var reply DrainReply
	if err := r.callCtx(ctx, "Drain", nil, DrainArgs{}, &reply); err != nil {
		return err
	}
	r.drainSeen.Store(reply.Draining)
	return nil
}

// Resume re-opens admission at the site after a drain.
func (r *RemoteSite) Resume() {
	var reply DrainReply
	//distcfd:ctxflow-ok — operator rollback, not request work: runs without a driver context
	if err := r.callCtx(context.Background(), "Drain", nil, DrainArgs{Resume: true}, &reply); err == nil {
		r.drainSeen.Store(reply.Draining)
	}
}

// Draining reports the last drain signal seen on this connection — a
// CodeDraining rejection or the site's reply to this client's own
// Drain / Resume call — without probing the site. Cleared by
// reconnection.
func (r *RemoteSite) Draining() bool { return r.drainSeen.Load() }

// live returns the current connection, redialing first when a prior
// failure broke it. Concurrent callers single-flight behind one redial
// (the redial slot) and all see the fresh connection; the dial runs
// under the caller's ctx and outside the proxy's lock. A redial failure
// is a pre-execution unavailable error — nothing was sent, so even
// non-idempotent calls may retry it.
func (r *RemoteSite) live(ctx context.Context) (*rpc.Client, uint64, error) {
	if client, gen, broken, err := r.current(); !broken {
		return client, gen, err
	}
	select {
	case r.redial <- struct{}{}:
		defer func() { <-r.redial }()
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	// Whoever held the slot before may have reconnected already.
	if client, gen, broken, err := r.current(); !broken {
		return client, gen, err
	}
	client, info, err := dialSite(ctx, r.addr, r.id)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		return nil, 0, core.NotRun(core.CodeUnavailable, "remote: site %d: redial: %v", r.id, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		client.Close()
		return nil, 0, r.closedErr()
	}
	r.client = client
	// The re-handshake refreshes the cached fragment state: a
	// restarted site may hold different data, and a stale size would
	// skew CheckSizes and coverage accounting.
	r.pred, r.size = info.Pred, info.NumTuples
	r.broken = false
	r.gen++
	// A reconnected site is a fresh process: whatever drain state
	// the old one advertised no longer applies.
	r.drainSeen.Store(false)
	return r.client, r.gen, nil
}

// current returns the connection as it stands — broken reports that
// it needs a redial first — or the closed-proxy error.
func (r *RemoteSite) current() (_ *rpc.Client, gen uint64, broken bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, false, r.closedErr()
	}
	return r.client, r.gen, r.broken, nil
}

func (r *RemoteSite) closedErr() error {
	return core.NotRun(core.CodeUnavailable, "remote: site %d: client closed", r.id)
}

// markBroken retires the connection a failed call used. The generation
// guard makes late failures of already-replaced connections harmless.
// Closing the client fails that connection's other in-flight calls
// immediately and ends its receive loop.
func (r *RemoteSite) markBroken(gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.broken || r.gen != gen {
		return
	}
	r.broken = true
	r.client.Close()
}

// workArgs is a work call's args, a pointer to an Args struct embedding
// WireHeader; work stamps the call's budget into that header.
type workArgs interface{ header() *WireHeader }

func (r *RemoteSite) work(ctx context.Context, method string, args workArgs, reply any) error {
	return r.callCtx(ctx, method, args.header(), args, reply)
}

// callCtx performs one RPC. method is the bare method name; the service
// name (which carries the protocol version) is prepended. The call's
// one clock is its context — the caller's, capped by CallTimeout — whose
// remaining budget is stamped into hdr, a work call's WireHeader (nil
// for the control calls), so the site serves under the same budget. A
// caller that gives up gets its own error and leaves the connection
// alone (the response, if it ever arrives, is discarded); a spent budget
// breaks the connection, so the next call redials. Server-reported
// errors come back typed when the peer enveloped them; transport
// failures break the connection and surface as CodeUnavailable.
func (r *RemoteSite) callCtx(ctx context.Context, method string, hdr *WireHeader, args, reply any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	client, gen, err := r.live(ctx)
	if err != nil {
		return err
	}
	budget := ctx
	if d := r.cfg.CallTimeout; d > 0 {
		var cancel context.CancelFunc
		budget, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if hdr != nil {
		hdr.stamp(budget)
	}
	method = serviceName + "." + method
	call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-call.Done:
		if call.Error == nil {
			return nil
		}
		// A failure landing once the call's own budget is spent is the
		// site giving up under it: this call's timeout, whichever of
		// reply and timer came first.
		if ctx.Err() != nil || spent(ctx) || !spent(budget) {
			return r.classify(method, gen, call.Error)
		}
	case <-budget.Done():
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	r.markBroken(gen)
	return &core.CodedError{
		Code: core.CodeUnavailable,
		Msg:  fmt.Sprintf("remote: site %d: %s timed out after %v", r.id, method, r.cfg.CallTimeout),
	}
}

// spent reports whether ctx's deadline has passed, read off the clock:
// ctx.Err() trails the deadline by the timer's latency.
func spent(ctx context.Context) bool {
	dl, ok := ctx.Deadline()
	return ok && !time.Now().Before(dl)
}

// classify splits a failed call's error into its two regimes. An
// rpc.ServerError means the server answered: the connection is healthy
// and the failure is the handler's — decode the typed envelope if one
// is present. Anything else (ErrShutdown, I/O, gob) is a transport
// failure: the connection is done and the next call redials. Whether
// the request executed at the site is unknowable from here, so
// NotExecuted stays false and only idempotent or nonce-deduped calls
// retry through it.
func (r *RemoteSite) classify(method string, gen uint64, err error) error {
	if _, ok := err.(rpc.ServerError); ok {
		derr := decodeError(err)
		if core.ErrCodeOf(derr) == core.CodeDraining {
			r.drainSeen.Store(true)
		}
		return derr
	}
	r.markBroken(gen)
	return &core.CodedError{
		Code: core.CodeUnavailable,
		Msg:  fmt.Sprintf("remote: site %d: %s: %v", r.id, method, err),
	}
}

// ID returns the site index.
func (r *RemoteSite) ID() int { return r.id }

// NumTuples returns the fragment size captured at handshake and
// refreshed by every ApplyDelta through this proxy and every redial.
func (r *RemoteSite) NumTuples() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size, nil
}

// Predicate returns the fragment predicate captured at handshake.
func (r *RemoteSite) Predicate() (relation.Predicate, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pred, nil
}

// Ping is the health probe: it round-trips the connection and the
// server's handler queue without touching fragment data. The
// circuit breaker's half-open state uses it to test a site before
// re-admitting real traffic; since it flows through callCtx it also
// triggers a redial of a broken connection, which is exactly the
// recovery the probe wants to exercise.
func (r *RemoteSite) Ping(ctx context.Context) error {
	return r.callCtx(ctx, "Ping", nil, struct{}{}, &struct{}{})
}

// SigmaStats forwards to the remote site.
func (r *RemoteSite) SigmaStats(ctx context.Context, spec *core.BlockSpec) ([]int, error) {
	var reply []int
	err := r.work(ctx, "SigmaStats", &SpecArgs{Spec: spec}, &reply)
	return reply, err
}

// ExtractBlock forwards to the remote site.
func (r *RemoteSite) ExtractBlock(ctx context.Context, spec *core.BlockSpec, l int, attrs []string) (*relation.Relation, error) {
	return callDecode(ctx, r, "ExtractBlock", &ExtractArgs{Spec: spec, Attrs: attrs, Block: l}, FromWire)
}

// ExtractMatching forwards to the remote site.
func (r *RemoteSite) ExtractMatching(ctx context.Context, spec *core.BlockSpec, attrs []string) (*relation.Relation, error) {
	return callDecode(ctx, r, "ExtractMatching", &ExtractArgs{Spec: spec, Attrs: attrs}, FromWire)
}

// ExtractBlocksBatch forwards to the remote site.
func (r *RemoteSite) ExtractBlocksBatch(ctx context.Context, spec *core.BlockSpec, attrs []string, wanted []int) (map[int]*relation.Relation, error) {
	return callDecode(ctx, r, "ExtractBlocksBatch",
		&ExtractArgs{Spec: spec, Attrs: attrs, Wanted: wanted}, fromWireMap)
}

// Deposit forwards a shipped batch to the remote site. The nonce rides
// along so a retried shipment whose first attempt did land
// is dropped by the site instead of double-buffering.
func (r *RemoteSite) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	return r.work(ctx, "Deposit", &DepositArgs{Task: task, Batch: ToWire(batch), Nonce: nonce}, &struct{}{})
}

// Abort forwards the failed-run deposit cleanup to the remote site.
// Cleanup runs even for a cancelled driver context, bounded only by
// the call budget.
func (r *RemoteSite) Abort(taskKey string) error {
	//distcfd:ctxflow-ok — survive-cancel cleanup: must run when the request ctx is already dead
	return r.callCtx(context.Background(), "Abort", nil, AbortArgs{Task: taskKey}, &struct{}{})
}

// Cancel forwards the per-task cancel message: the site drains the
// task's deposits and tombstones the key so a batch still in flight
// when the driver cancelled is dropped on arrival.
func (r *RemoteSite) Cancel(taskKey string) error {
	//distcfd:ctxflow-ok — survive-cancel cleanup: must run when the request ctx is already dead
	return r.callCtx(context.Background(), "Cancel", nil, AbortArgs{Task: taskKey}, &struct{}{})
}

// DetectTask forwards to the remote site.
func (r *RemoteSite) DetectTask(ctx context.Context, task string, local core.LocalInput, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	return callDecode(ctx, r, "DetectTask",
		&DetectTaskArgs{Task: task, Local: local, CFDs: cfds}, fromWireSlice)
}

// DetectAssignedSingle forwards to the remote site.
func (r *RemoteSite) DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *core.BlockSpec, blocks []int, c *cfd.CFD) (*relation.Relation, error) {
	return callDecode(ctx, r, "DetectAssignedSingle",
		&DetectAssignedArgs{TaskPrefix: taskPrefix, Spec: spec, Blocks: blocks, CFD: c}, FromWire)
}

// DetectAssignedSet forwards to the remote site.
func (r *RemoteSite) DetectAssignedSet(ctx context.Context, taskPrefix string, spec *core.BlockSpec, blocks []int, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	return callDecode(ctx, r, "DetectAssignedSet",
		&DetectAssignedArgs{TaskPrefix: taskPrefix, Spec: spec, Blocks: blocks, CFDs: cfds}, fromWireSlice)
}

// DetectConstantsLocal forwards to the remote site.
func (r *RemoteSite) DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (*relation.Relation, error) {
	return callDecode(ctx, r, "DetectConstantsLocal", &ConstantsArgs{CFD: c}, FromWire)
}

// ApplyDelta forwards a fragment delta and its apply-once nonce. The
// proxy's cached fragment size is refreshed from the reply, so
// NumTuples tracks the mutated fragment as long as deltas flow through
// this driver.
func (r *RemoteSite) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (core.DeltaInfo, error) {
	var reply ApplyDeltaReply
	if err := r.work(ctx, "ApplyDelta", &ApplyDeltaArgs{Delta: DeltaToWire(d), Nonce: nonce}, &reply); err != nil {
		return core.DeltaInfo{}, err
	}
	r.mu.Lock()
	r.size = reply.NumTuples
	r.mu.Unlock()
	return core.DeltaInfo{Gen: reply.Gen, NumTuples: reply.NumTuples}, nil
}

// ExtractDeltaBlocks forwards to the remote site.
func (r *RemoteSite) ExtractDeltaBlocks(ctx context.Context, spec *core.BlockSpec, attrs []string, wanted []int, fromGen int64) (*core.DeltaBlocks, error) {
	return callDecode(ctx, r, "ExtractDeltaBlocks",
		&DeltaBlocksArgs{Spec: spec, Attrs: attrs, Wanted: wanted, FromGen: fromGen}, deltaFromWire)
}

// FoldDetect forwards to the remote site, the shipped delta blocks
// inline.
func (r *RemoteSite) FoldDetect(ctx context.Context, args core.FoldArgs) (*core.FoldReply, error) {
	w := &FoldArgs{Session: args.Session, Spec: args.Spec, Blocks: args.Blocks, CFDs: args.CFDs,
		RestrictSingle: args.RestrictSingle, Seed: args.Seed, FromGen: args.FromGen,
		Shipped: make([]DeltaBlocksReply, len(args.Shipped))}
	for i, db := range args.Shipped {
		w.Shipped[i] = deltaToWire(db)
	}
	return callDecode(ctx, r, "FoldDetect", w, func(reply FoldReply) (*core.FoldReply, error) {
		pats, err := fromWireSlice(append(reply.Added, reply.Removed...))
		if err != nil {
			return nil, err
		}
		return &core.FoldReply{Added: pats[:len(reply.Added)], Removed: pats[len(reply.Added):], ToGen: reply.ToGen}, nil
	})
}

// DropSession forwards the retained-state release; like Abort/Cancel
// it is cleanup and runs even without a live driver context.
func (r *RemoteSite) DropSession(session string) error {
	//distcfd:ctxflow-ok — survive-cancel cleanup: must run when the request ctx is already dead
	return r.callCtx(context.Background(), "DropSession", nil, SessionArgs{Session: session}, &struct{}{})
}

// MineFrequent forwards to the remote site.
func (r *RemoteSite) MineFrequent(ctx context.Context, x []string, theta float64) ([]mining.Pattern, error) {
	var reply []mining.Pattern
	err := r.work(ctx, "MineFrequent", &MineArgs{X: x, Theta: theta}, &reply)
	return reply, err
}

// Close releases the connection and disables redial. It is idempotent,
// and closing a proxy whose connection a transport failure already
// retired (markBroken closed that client) is not an error.
func (r *RemoteSite) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if err := r.client.Close(); err != nil && err != rpc.ErrShutdown {
		return err
	}
	return nil
}

// callDecode performs one call whose reply carries relations and
// decodes the reply — through FromWire's verification — with decode.
func callDecode[W, T any](ctx context.Context, r *RemoteSite, method string, args workArgs, decode func(W) (T, error)) (T, error) {
	var reply W
	if err := r.work(ctx, method, args, &reply); err != nil {
		var zero T
		return zero, err
	}
	return decode(reply)
}

func fromWireMap(ws map[int]*WireRelation) (map[int]*relation.Relation, error) {
	out := make(map[int]*relation.Relation, len(ws))
	for l, w := range ws {
		rel, err := FromWire(w)
		if err != nil {
			return nil, err
		}
		out[l] = rel
	}
	return out, nil
}

func fromWireSlice(ws []*WireRelation) ([]*relation.Relation, error) {
	out := make([]*relation.Relation, len(ws))
	for i, w := range ws {
		rel, err := FromWire(w)
		if err != nil {
			return nil, err
		}
		out[i] = rel
	}
	return out, nil
}
