package core

import (
	"context"

	"distcfd/internal/cfd"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// Intercept is a SiteAPI that puts one hook around another site: the
// single forwarder behind every cross-cutting wrapper (admission
// control, fault injection — embed it and supply the hook). The
// context-taking methods, the site's actual work, run through around,
// named by method so a hook can treat some specially (Ping is the
// liveness probe: admission lets it through, fault plans spare it rate
// faults). Identity (ID, NumTuples, Predicate) and cleanup (Abort,
// Cancel, DropSession) go straight to the site: identity must stay
// coherent for a cluster to exist at all, and cleanup must run whatever
// state a hook is in. The optional surfaces a site may expose beside
// SiteAPI are forwarded too, so wrapping never hides them.
type Intercept struct {
	// site returns the wrapped site; a func because a wrapper may
	// replace it (a fault plan restarting a crashed site).
	site func() SiteAPI
	// around runs call — against whichever site it chooses — or returns
	// its own error without running it.
	around func(ctx context.Context, method string, call func(SiteAPI) error) error
}

// NewIntercept builds the forwarder over site with hook around.
func NewIntercept(site func() SiteAPI, around func(ctx context.Context, method string, call func(SiteAPI) error) error) Intercept {
	return Intercept{site: site, around: around}
}

var _ SiteAPI = (*Intercept)(nil)

func (w *Intercept) ID() int                                { return w.site().ID() }
func (w *Intercept) NumTuples() (int, error)                { return w.site().NumTuples() }
func (w *Intercept) Predicate() (relation.Predicate, error) { return w.site().Predicate() }
func (w *Intercept) Abort(taskKey string) error             { return w.site().Abort(taskKey) }
func (w *Intercept) Cancel(taskKey string) error            { return w.site().Cancel(taskKey) }
func (w *Intercept) DropSession(session string) error       { return w.site().DropSession(session) }

func (w *Intercept) Ping(ctx context.Context) error {
	return w.around(ctx, "Ping", func(in SiteAPI) error { return in.Ping(ctx) })
}

func (w *Intercept) SigmaStats(ctx context.Context, spec *BlockSpec) (out []int, err error) {
	err = w.around(ctx, "SigmaStats", func(in SiteAPI) error { out, err = in.SigmaStats(ctx, spec); return err })
	return out, err
}

func (w *Intercept) ExtractBlock(ctx context.Context, spec *BlockSpec, l int, attrs []string) (out *relation.Relation, err error) {
	err = w.around(ctx, "ExtractBlock", func(in SiteAPI) error { out, err = in.ExtractBlock(ctx, spec, l, attrs); return err })
	return out, err
}

func (w *Intercept) ExtractMatching(ctx context.Context, spec *BlockSpec, attrs []string) (out *relation.Relation, err error) {
	err = w.around(ctx, "ExtractMatching", func(in SiteAPI) error { out, err = in.ExtractMatching(ctx, spec, attrs); return err })
	return out, err
}

func (w *Intercept) ExtractBlocksBatch(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int) (out map[int]*relation.Relation, err error) {
	err = w.around(ctx, "ExtractBlocksBatch", func(in SiteAPI) error {
		out, err = in.ExtractBlocksBatch(ctx, spec, attrs, wanted)
		return err
	})
	return out, err
}

func (w *Intercept) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	return w.around(ctx, "Deposit", func(in SiteAPI) error { return in.Deposit(ctx, task, batch, nonce) })
}

func (w *Intercept) DetectTask(ctx context.Context, task string, local LocalInput, cfds []*cfd.CFD) (out []*relation.Relation, err error) {
	err = w.around(ctx, "DetectTask", func(in SiteAPI) error { out, err = in.DetectTask(ctx, task, local, cfds); return err })
	return out, err
}

func (w *Intercept) DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, c *cfd.CFD) (out *relation.Relation, err error) {
	err = w.around(ctx, "DetectAssignedSingle", func(in SiteAPI) error {
		out, err = in.DetectAssignedSingle(ctx, taskPrefix, spec, blocks, c)
		return err
	})
	return out, err
}

func (w *Intercept) DetectAssignedSet(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, cfds []*cfd.CFD) (out []*relation.Relation, err error) {
	err = w.around(ctx, "DetectAssignedSet", func(in SiteAPI) error {
		out, err = in.DetectAssignedSet(ctx, taskPrefix, spec, blocks, cfds)
		return err
	})
	return out, err
}

func (w *Intercept) DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (out *relation.Relation, err error) {
	err = w.around(ctx, "DetectConstantsLocal", func(in SiteAPI) error { out, err = in.DetectConstantsLocal(ctx, c); return err })
	return out, err
}

func (w *Intercept) MineFrequent(ctx context.Context, x []string, theta float64) (out []mining.Pattern, err error) {
	err = w.around(ctx, "MineFrequent", func(in SiteAPI) error { out, err = in.MineFrequent(ctx, x, theta); return err })
	return out, err
}

func (w *Intercept) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (out DeltaInfo, err error) {
	err = w.around(ctx, "ApplyDelta", func(in SiteAPI) error { out, err = in.ApplyDelta(ctx, d, nonce); return err })
	return out, err
}

func (w *Intercept) ExtractDeltaBlocks(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int, fromGen int64) (out *DeltaBlocks, err error) {
	err = w.around(ctx, "ExtractDeltaBlocks", func(in SiteAPI) error {
		out, err = in.ExtractDeltaBlocks(ctx, spec, attrs, wanted, fromGen)
		return err
	})
	return out, err
}

func (w *Intercept) FoldDetect(ctx context.Context, args FoldArgs) (out *FoldReply, err error) {
	err = w.around(ctx, "FoldDetect", func(in SiteAPI) error { out, err = in.FoldDetect(ctx, args); return err })
	return out, err
}

// The optional surfaces. Each forwards to the site when it has the
// method and is a no-op (zero result) otherwise.

// PendingDeposits forwards the leak-detection counter.
func (w *Intercept) PendingDeposits() int {
	if p, ok := w.site().(interface{ PendingDeposits() int }); ok {
		return p.PendingDeposits()
	}
	return 0
}

// Draining forwards the site's drain state (see Cluster.HealthDetail).
func (w *Intercept) Draining() bool {
	d, ok := w.site().(drainStatus)
	return ok && d.Draining()
}

// Close forwards to a site that holds resources (a store-backed site's
// mapping and WAL handle, a remote proxy's connection).
func (w *Intercept) Close() error {
	if c, ok := w.site().(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
