package remote

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// SiteService exposes a core.SiteAPI over net/rpc. Method names mirror
// core.SiteAPI one-to-one. Every handler roots its site work in
// baseCtx — the server's lifetime context — so a shutting-down
// cfdsite cancels in-flight detection instead of letting it run to
// completion against a dying process; a work call is further bounded
// by the budget its WireHeader carries, the client's own budget for
// the call. Per-task cleanup still flows through the Cancel/Abort
// messages.
//
// Serving an interface rather than *core.Site lets the fault-injection
// harness (internal/faulty) wrap a real site and serve the faulty view
// over a real socket. Handler errors cross the wire through
// encodeError, so typed classifications (stale, unavailable) survive
// net/rpc's string flattening.
type SiteService struct {
	site    core.SiteAPI
	schema  *relation.Schema
	baseCtx context.Context
}

// NewSiteServiceContext wraps a site for serving; ctx bounds every
// handler's site work.
func NewSiteServiceContext(ctx context.Context, site core.SiteAPI, schema *relation.Schema) *SiteService {
	return &SiteService{site: site, schema: schema, baseCtx: ctx}
}

// ServeAPIContext registers the service for any core.SiteAPI and
// accepts connections until the listener closes or ctx is cancelled.
// It blocks; on cancellation it closes the listener and returns nil (a
// graceful shutdown, not an error), with every in-flight handler's
// site work cancelled through the service's base context. It configures
// nothing on api: how a site shards its checks is the site's own
// (core.Site.SetDetectParallelism).
func ServeAPIContext(ctx context.Context, lis net.Listener, api core.SiteAPI, schema *relation.Schema) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(serviceName, NewSiteServiceContext(ctx, api, schema)); err != nil {
		return err
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			lis.Close() // unblocks Accept
		case <-done:
		}
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go srv.ServeConn(conn)
	}
}

// InfoReply answers the handshake. Version is the server's
// WireVersion; a peer running the version-1 protocol leaves it zero
// (gob omits unknown fields), which Dial rejects.
type InfoReply struct {
	ID        int
	NumTuples int
	Pred      relation.Predicate
	Schema    *WireSchema
	Version   int
}

// Info returns site identity, size, predicate, schema and wire version.
func (s *SiteService) Info(_ struct{}, reply *InfoReply) error {
	n, err := s.site.NumTuples()
	if err != nil {
		return encodeError(err)
	}
	pred, err := s.site.Predicate()
	if err != nil {
		return encodeError(err)
	}
	reply.Version = WireVersion
	reply.ID = s.site.ID()
	reply.NumTuples = n
	reply.Pred = pred
	reply.Schema = SchemaToWire(s.schema)
	return nil
}

// Ping is the health probe: a round trip through the connection and the
// handler queue, no fragment work.
func (s *SiteService) Ping(_ struct{}, _ *struct{}) error {
	return encodeError(s.site.Ping(s.baseCtx))
}

// WireHeader is the header every work Args struct embeds: what is left
// of the call's budget when the client sends it, zero for none —
// relative, so the site times it on its own clock, immune to clock
// skew. RemoteSite.work stamps it (no call site writes it); s.work
// serves the handler under it.
type WireHeader struct {
	Budget time.Duration
}

// header makes a pointer to an Args struct a workArgs; a struct passed
// by value, whose stamp would land in a copy, does not compile as one.
func (h *WireHeader) header() *WireHeader { return h }

// stamp writes what is left of ctx's deadline into the header.
func (h *WireHeader) stamp(ctx context.Context) {
	if dl, ok := ctx.Deadline(); ok {
		h.Budget = time.Until(dl)
		if h.Budget <= 0 {
			h.Budget = -1 // spent, which is not "none"
		}
	}
}

// workCtx derives one handler's context: the server's lifetime context
// bounded by the call's budget, so the site abandons work the client
// stopped waiting for. A zero budget (none) serves under baseCtx alone;
// a spent (negative) one cancels before the site work starts.
func (s *SiteService) workCtx(budget time.Duration) (context.Context, context.CancelFunc) {
	if budget == 0 {
		return s.baseCtx, func() {}
	}
	return context.WithTimeout(s.baseCtx, budget)
}

// work is the frame every work handler runs its site call in: the
// handler's context derived from the call's header, released on
// return, and the site's error enveloped for the wire.
func (s *SiteService) work(h WireHeader, fn func(ctx context.Context) error) error {
	ctx, cancel := s.workCtx(h.Budget)
	defer cancel()
	return encodeError(fn(ctx))
}

// into is the tail of a work handler: on success the site's result,
// converted by toWire, becomes the reply.
func into[T, W any](reply *W, toWire func(T) W) func(T, error) error {
	return func(v T, err error) error {
		if err == nil {
			*reply = toWire(v)
		}
		return err
	}
}

// wireValue, toWireSlice and toWireMap convert a handler's relations for
// the reply.
func wireValue(r *relation.Relation) WireRelation { return *ToWire(r) }

func toWireSlice(rs []*relation.Relation) []*WireRelation {
	out := make([]*WireRelation, len(rs))
	for i, r := range rs {
		out[i] = ToWire(r)
	}
	return out
}

func toWireMap(rs map[int]*relation.Relation) map[int]*WireRelation {
	out := make(map[int]*WireRelation, len(rs))
	for l, r := range rs {
		out[l] = ToWire(r)
	}
	return out
}

// DrainArgs drives the drain state machine. Resume=false asks the site to retire gracefully: stop admitting work, finish
// in-flight tasks (bounded by the site's DrainTimeout). Resume=true
// re-opens admission (operator rollback).
type DrainArgs struct {
	Resume bool
}

// DrainReply reports the site's drain state after the call.
type DrainReply struct {
	Draining bool
}

// Drain enters or leaves the drain state. The served site must expose the drain surface (core.Drainer — the admission wrapper
// does); a site served without one rejects the call.
func (s *SiteService) Drain(args DrainArgs, reply *DrainReply) error {
	d, ok := s.site.(core.Drainer)
	if !ok {
		return encodeError(fmt.Errorf("remote: site %d has no admission controller to drain (serve it with cfdsite -admit)", s.site.ID()))
	}
	if args.Resume {
		d.Resume()
		reply.Draining = d.Draining()
		return nil
	}
	err := d.Drain(s.baseCtx)
	reply.Draining = d.Draining()
	return encodeError(err)
}

// SpecArgs carries a σ spec.
type SpecArgs struct {
	WireHeader
	Spec *core.BlockSpec
}

// SigmaStats returns lstat for the spec.
func (s *SiteService) SigmaStats(args SpecArgs, reply *[]int) error {
	return s.work(args.WireHeader, func(ctx context.Context) (err error) {
		*reply, err = s.site.SigmaStats(ctx, args.Spec)
		return err
	})
}

// ExtractArgs selects blocks and projection attributes.
type ExtractArgs struct {
	WireHeader
	Spec   *core.BlockSpec
	Attrs  []string
	Block  int
	Wanted []int
}

// ExtractBlock returns one σ-block.
func (s *SiteService) ExtractBlock(args ExtractArgs, reply *WireRelation) error {
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, wireValue)(s.site.ExtractBlock(ctx, args.Spec, args.Block, args.Attrs))
	})
}

// ExtractMatching returns all matching tuples.
func (s *SiteService) ExtractMatching(args ExtractArgs, reply *WireRelation) error {
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, wireValue)(s.site.ExtractMatching(ctx, args.Spec, args.Attrs))
	})
}

// ExtractBlocksBatch returns several blocks in one pass.
func (s *SiteService) ExtractBlocksBatch(args ExtractArgs, reply *map[int]*WireRelation) error {
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, toWireMap)(s.site.ExtractBlocksBatch(ctx, args.Spec, args.Attrs, args.Wanted))
	})
}

// DepositArgs carries a shipped batch. Nonce keys the site's
// at-most-once dedup; empty disables it.
type DepositArgs struct {
	WireHeader
	Task  string
	Batch *WireRelation
	Nonce string
}

// Deposit buffers a batch under the task key.
func (s *SiteService) Deposit(args DepositArgs, _ *struct{}) error {
	r, err := FromWire(args.Batch)
	if err != nil {
		return encodeError(err)
	}
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return s.site.Deposit(ctx, args.Task, r, args.Nonce)
	})
}

// AbortArgs names the task whose deposits to drain.
type AbortArgs struct {
	Task string
}

// Abort drains the task's deposit buffers (failed-run cleanup).
func (s *SiteService) Abort(args AbortArgs, _ *struct{}) error {
	return encodeError(s.site.Abort(args.Task))
}

// Cancel is the per-task cancel message: it drains the task's deposit
// buffers like Abort and tombstones the key, so a
// Deposit that was still in flight when the driver cancelled is
// dropped on arrival instead of leaking in this long-lived process.
func (s *SiteService) Cancel(args AbortArgs, _ *struct{}) error {
	return encodeError(s.site.Cancel(args.Task))
}

// DetectTaskArgs parameterizes the CTR-style coordinator step.
type DetectTaskArgs struct {
	WireHeader
	Task  string
	Local core.LocalInput
	CFDs  []*cfd.CFD
}

// DetectTask runs detection for the task.
func (s *SiteService) DetectTask(args DetectTaskArgs, reply *[]*WireRelation) error {
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, toWireSlice)(s.site.DetectTask(ctx, args.Task, args.Local, args.CFDs))
	})
}

// DetectAssignedArgs parameterizes the coordinator step.
type DetectAssignedArgs struct {
	WireHeader
	TaskPrefix string
	Spec       *core.BlockSpec
	Blocks     []int
	CFDs       []*cfd.CFD
}

// DetectAssignedSet runs the coordinator step.
func (s *SiteService) DetectAssignedSet(args DetectAssignedArgs, reply *[]*WireRelation) error {
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, toWireSlice)(s.site.DetectAssignedSet(ctx, args.TaskPrefix, args.Spec, args.Blocks, args.CFDs))
	})
}

// ConstantsArgs carries the CFD whose constant units to check.
type ConstantsArgs struct {
	WireHeader
	CFD *cfd.CFD
}

// DetectConstantsLocal checks constant units locally (Prop. 5).
func (s *SiteService) DetectConstantsLocal(args ConstantsArgs, reply *WireRelation) error {
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, wireValue)(s.site.DetectConstantsLocal(ctx, args.CFD))
	})
}

// ApplyDeltaArgs carries one fragment delta; Nonce keys the site's
// apply-once memo (empty disables it).
type ApplyDeltaArgs struct {
	WireHeader
	Delta WireDelta
	Nonce string
}

// ApplyDeltaReply reports the post-delta site state.
type ApplyDeltaReply struct {
	Gen       int64
	NumTuples int
}

// ApplyDelta applies a delta to the local fragment, maintaining the
// serving caches and the delta log.
func (s *SiteService) ApplyDelta(args ApplyDeltaArgs, reply *ApplyDeltaReply) error {
	d, err := DeltaFromWire(args.Delta)
	if err != nil {
		return encodeError(err)
	}
	return s.work(args.WireHeader, func(ctx context.Context) error {
		info, err := s.site.ApplyDelta(ctx, d, args.Nonce)
		reply.Gen, reply.NumTuples = info.Gen, info.NumTuples
		return err
	})
}

// DeltaBlocksArgs selects the σ-routed delta view of the log suffix.
type DeltaBlocksArgs struct {
	WireHeader
	Spec    *core.BlockSpec
	Attrs   []string
	Wanted  []int
	FromGen int64
}

// DeltaBlocksReply is the delta-encoded payload: only the changed
// tuples' projections (per block, inserts and delete records) travel,
// beside the extract's σ counts.
type DeltaBlocksReply struct {
	ToGen    int64
	Ins, Del map[int]*WireRelation
	Counts   []int
}

// deltaToWire and deltaFromWire convert delta blocks at both ends:
// an ExtractDeltaBlocks reply and the blocks a FoldDetect ships. Every
// payload passes FromWire's verification on the way in.
func deltaToWire(db *core.DeltaBlocks) DeltaBlocksReply {
	return DeltaBlocksReply{ToGen: db.ToGen, Ins: toWireMap(db.Ins), Del: toWireMap(db.Del), Counts: db.Counts}
}

func deltaFromWire(w DeltaBlocksReply) (*core.DeltaBlocks, error) {
	ins, err := fromWireMap(w.Ins)
	if err != nil {
		return nil, err
	}
	del, err := fromWireMap(w.Del)
	if err != nil {
		return nil, err
	}
	return &core.DeltaBlocks{ToGen: w.ToGen, Ins: ins, Del: del, Counts: w.Counts}, nil
}

// ExtractDeltaBlocks returns the σ-routed delta blocks.
func (s *SiteService) ExtractDeltaBlocks(args DeltaBlocksArgs, reply *DeltaBlocksReply) error {
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, deltaToWire)(s.site.ExtractDeltaBlocks(ctx, args.Spec, args.Attrs, args.Wanted, args.FromGen))
	})
}

// FoldArgs is core.FoldArgs on the wire, field by field (so wire.golden
// sees every one), behind the shared header. Shipped holds one entry per
// source site; only Ins and Del are read.
type FoldArgs struct {
	WireHeader
	Session string
	Spec    *core.BlockSpec
	Blocks  []int
	CFDs    []*cfd.CFD
	Seed    bool
	FromGen int64
	Shipped []DeltaBlocksReply
}

// FoldReply carries the coordinator's per-CFD pattern changes.
type FoldReply struct {
	Added, Removed []*WireRelation
	ToGen          int64
}

// FoldDetect runs the coordinator's incremental step over the shipped
// delta blocks, which are verified before the site sees any of them.
func (s *SiteService) FoldDetect(args FoldArgs, reply *FoldReply) error {
	fa := core.FoldArgs{Session: args.Session, Spec: args.Spec, Blocks: args.Blocks, CFDs: args.CFDs,
		Seed: args.Seed, FromGen: args.FromGen, Shipped: make([]*core.DeltaBlocks, len(args.Shipped))}
	for i, w := range args.Shipped {
		db, err := deltaFromWire(w)
		if err != nil {
			return encodeError(err)
		}
		fa.Shipped[i] = db
	}
	return s.work(args.WireHeader, func(ctx context.Context) error {
		return into(reply, func(rep *core.FoldReply) FoldReply {
			return FoldReply{Added: toWireSlice(rep.Added), Removed: toWireSlice(rep.Removed), ToGen: rep.ToGen}
		})(s.site.FoldDetect(ctx, fa))
	})
}

// SessionArgs names an incremental session.
type SessionArgs struct {
	Session string
}

// DropSession releases a session's retained fold states.
func (s *SiteService) DropSession(args SessionArgs, _ *struct{}) error {
	return encodeError(s.site.DropSession(args.Session))
}

// MineArgs parameterizes frequent-pattern mining.
type MineArgs struct {
	WireHeader
	X     []string
	Theta float64
}

// MineFrequent mines closed frequent patterns at the site.
func (s *SiteService) MineFrequent(args MineArgs, reply *[]mining.Pattern) error {
	return s.work(args.WireHeader, func(ctx context.Context) (err error) {
		*reply, err = s.site.MineFrequent(ctx, args.X, args.Theta)
		return err
	})
}
