package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// This file is the driver half of incremental detection. A compiled
// plan retains, per unit, an incremental session: a sticky coordinator
// assignment, a per-site fold watermark (fragment generation), the
// session key naming the group states the coordinators keep, and each
// view's patterns as a counted set. A DetectIncremental round then
//
//  1. recomputes the run's *accounting* exactly as a fresh Detect
//     would — per-block statistics come from the sites' maintained σ
//     entries, the coordinator policy re-runs on them, and the
//     shipments that fresh run would make are charged to the metrics'
//     regular channel — so ShippedTuples, ModeledTime, and the
//     violation output of an incremental round are byte-identical to
//     a fresh compiled Detect on the same data;
//  2. moves only deltas: every site σ-routes its logged delta suffix,
//     and each sticky coordinator receives the per-block inserts and
//     delete records it owns inside its one FoldDetect call (charged to
//     the delta channel of dist.Metrics) and folds them into its
//     retained group states;
//  3. moves only changed patterns back: each fold replies with the
//     X-patterns that flipped, merged into the last sorted patterns.
//
// The first round (and any round the sites report stale state for —
// trimmed log, unknown session, another spec — or that failed) seeds:
// statistics, then full blocks ship once as one big insert delta and
// each fold replies with its full set. A later round is two site-call
// phases, its statistics riding in the extract replies. A session lives
// on however many deletes it folds: a group state holds exactly the
// current multiset. Sticky coordinators may drift from what the current
// statistics would choose; that changes which site folds a block, never
// the violation union or the reported (fresh-equivalent) accounting.

// unitInc is the retained driver state of one plan unit's session.
type unitInc struct {
	session   string
	sticky    []int
	foldedGen []int64
	seeded    bool
	pats      []*relation.CountedSet // per view, once per block state reporting a pattern
}

// invalidate abandons the session after a failed round: coordinator
// states and pattern sets are dropped and the next round reseeds under a
// fresh key. Delta blocks ride in the fold, so no deposit needs draining.
func (st *unitInc) invalidate(cl *Cluster) {
	if st.session != "" {
		cl.dropSession(st.session)
	}
	st.session = ""
	st.seeded = false
	st.pats = nil
}

// foldDeltas runs an incremental round's σ-block half and returns the
// fresh-equivalent coordinators and each view's patterns, sorted. A
// stale-state failure retries once with a full reseed; any error leaves
// the session invalidated (zero retained deposits) and the next call
// reseeds.
func (u *unit) foldDeltas(ctx context.Context, fs *faultState, m *dist.Metrics, fragSizes []int, st *unitInc) ([]int, []*relation.Relation, error) {
	// Each attempt records its accounting and delta shipments on its own
	// metrics, merged into the round's only on success: a stale-state
	// retry must not fold the aborted attempt's traffic into the figures.
	// Under an active failure policy, a transient failure that escaped
	// the per-call retries recovers the same way a stale session does —
	// invalidate and reseed — up to the unit attempt budget. (The
	// incremental path never excludes sites; FailDegrade behaves like
	// FailRetry here.)
	attempts := 2
	if fs.active() {
		attempts = unitAttempts
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		attemptM := dist.NewMetrics(u.cl.N())
		coords, views, rerr := st.round(ctx, u, fs, attemptM, fragSizes)
		if err = rerr; err == nil {
			m.Merge(attemptM)
			return coords, views, nil
		}
		st.invalidate(u.cl)
		if ctx.Err() != nil || !(IsStaleIncremental(err) || (fs.active() && isTransient(err))) {
			return nil, nil, err
		}
	}
	return nil, nil, err
}

// round runs one attempt. A seed assigns on SigmaStats, as a fresh run
// does, then extracts full blocks; a later round extracts first — also
// every block without a coordinator — and assigns on the counts the
// extracts carry. Then the fresh run's shipments are charged, each
// coordinator folds what every source ships it, the replies update the
// views' pattern sets, and the watermarks commit.
func (st *unitInc) round(ctx context.Context, u *unit, fs *faultState, m *dist.Metrics, fragSizes []int) ([]int, []*relation.Relation, error) {
	cl, spec, detectCFDs := u.cl, u.spec, u.views
	attrs := taskAttrs(spec, detectCFDs)
	n := cl.N()
	seeding := !st.seeded
	wanted := make([][]int, n)
	replies := make([]*DeltaBlocks, n)
	extract := func(ctx context.Context, i int) (_ []int, err error) {
		for l, coord := range st.sticky {
			if coord != i && (coord >= 0 || !seeding) {
				wanted[i] = append(wanted[i], l)
			}
		}
		fromGen := st.foldedGen[i]
		if seeding {
			fromGen = -1
		}
		if replies[i], err = fs.sites[i].ExtractDeltaBlocks(ctx, spec, attrs, wanted[i], fromGen); err != nil {
			return nil, err
		}
		return replies[i].Counts, nil
	}
	// A stale extract fails the attempt; foldDeltas reseeds.
	var prunedSite []bool
	var lstat [][]int
	var coords []int
	var err error
	if !seeding {
		_, lstat, coords, err = u.assignBlocks(ctx, fs, m, fragSizes, extract)
	} else if prunedSite, lstat, coords, err = u.assignBlocks(ctx, fs, m, fragSizes, u.sigmaStats(fs)); err == nil {
		st.session = cl.newTask("inc")
		st.sticky = slices.Clone(coords)
		st.foldedGen = make([]int64, n)
		err = cl.parallelCtx(ctx, func(ctx context.Context, i int) (err error) {
			if !prunedSite[i] {
				_, err = extract(ctx, i)
			}
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	// Blocks born since the seed (empty cluster-wide back then) get the
	// coordinator the counts pick; their whole content arrives as deltas.
	for l, coord := range st.sticky {
		if coord < 0 {
			st.sticky[l] = coords[l]
		}
	}

	// Fresh-equivalent shipment accounting: exactly the blocks a fresh
	// run would move, charged as tuple counts (payload bytes live on
	// the delta channel — they are what actually crossed the wire).
	for l, coord := range coords {
		if coord < 0 {
			continue
		}
		for i := 0; i < n; i++ {
			if i != coord && lstat[i][l] > 0 {
				m.ShipTuples(i, coord, lstat[i][l], 0)
			}
		}
	}

	// Split each reply by sticky coordinator: out[i][j] holds the inserts
	// ([0]) and delete records ([1]) site i ships to j inside j's
	// FoldDetect. A block the counts just gave to site i itself ships
	// nothing — a coordinator folds its own log suffix — and neither does
	// one they left without a coordinator: it is empty again.
	out := make([][][2]map[int]*relation.Relation, n)
	for i, rep := range replies {
		if rep == nil {
			continue
		}
		out[i] = make([][2]map[int]*relation.Relation, n)
		for k, blocks := range [2]map[int]*relation.Relation{rep.Ins, rep.Del} {
			for l, batch := range blocks {
				if !slices.Contains(wanted[i], l) {
					return nil, nil, fmt.Errorf("core: site %d returned delta block %d, which was not asked for", i, l)
				}
				j := st.sticky[l]
				if j < 0 || j == i || batch == nil || batch.Len() == 0 {
					continue
				}
				if u.opt.NoPackedShip {
					batch.DropPacked()
				}
				m.ShipDelta(i, j, batch.Len(), dist.RelationBytes(batch))
				if out[i][j][k] == nil {
					out[i][j][k] = map[int]*relation.Relation{}
				}
				out[i][j][k][l] = batch
			}
		}
	}

	// Fold at the coordinators, each with what every source ships it.
	bySite := blocksBySite(st.sticky, n)
	reps := make([]*FoldReply, n)
	if err := cl.parallelCtx(ctx, func(ctx context.Context, j int) (err error) {
		if len(bySite[j]) == 0 {
			return nil
		}
		var shipped []*DeltaBlocks
		for _, to := range out {
			if to != nil && (to[j][0] != nil || to[j][1] != nil) {
				shipped = append(shipped, &DeltaBlocks{Ins: to[j][0], Del: to[j][1]})
			}
		}
		// A fold the failure hook could not absorb (reissue: FoldDetect
		// mutates the session's retained states) reseeds via the
		// round-level retry.
		reps[j], err = fs.sites[j].FoldDetect(ctx, FoldArgs{Session: st.session, Spec: spec, Blocks: bySite[j], CFDs: detectCFDs,
			RestrictSingle: u.restrict, Seed: seeding, FromGen: st.foldedGen[j], Shipped: shipped})
		if err == nil && (len(reps[j].Added) != len(detectCFDs) || len(reps[j].Removed) != len(detectCFDs)) {
			err = fmt.Errorf("core: site %d folded %d CFDs but replied %d/%d pattern sets", j, len(detectCFDs), len(reps[j].Added), len(reps[j].Removed))
		}
		return err
	}); err != nil {
		return nil, nil, err
	}

	// Each reply adds and removes patterns of every view — a seed's adds
	// its full set — and the view's counted set returns them sorted.
	if seeding {
		st.pats = make([]*relation.CountedSet, len(detectCFDs))
		for vi, ci := range u.viewIdx {
			st.pats[vi] = relation.NewCountedSet(u.schemas[ci])
		}
	}
	views := make([]*relation.Relation, len(detectCFDs))
	for vi := range views {
		var added, removed []*relation.Relation
		for _, rep := range reps {
			if rep != nil {
				added, removed = append(added, rep.Added[vi]), append(removed, rep.Removed[vi])
			}
		}
		if views[vi], err = st.pats[vi].Update(added, removed); err != nil {
			return nil, nil, fmt.Errorf("core: fold replies for %s: %w", detectCFDs[vi].Name, err)
		}
	}

	// Commit watermarks only on full success; a partial round was
	// invalidated by the caller and reseeds.
	for i := 0; i < n; i++ {
		if replies[i] != nil {
			st.foldedGen[i] = replies[i].ToGen
		}
		if reps[i] != nil {
			st.foldedGen[i] = reps[i].ToGen
		}
	}
	st.seeded = true
	return coords, views, nil
}

// DetectIncremental runs the compiled plan against the cluster's
// current data, serving from retained delta state: only tuples that
// changed since the previous call (per the sites' delta logs) are
// σ-routed and shipped, and the sticky coordinators fold them into
// retained group states. The violation sets, ShippedTuples, per-unit
// CheckSizes and ModeledTime are byte-identical to a fresh p.Detect on
// the same data (property-tested); what actually moved is reported in
// DeltaShippedTuples/DeltaShippedBytes. The first call — and any call
// after an error or one a site reports stale for (a trimmed delta log,
// an evicted session, a restart) — transparently reseeds with one full
// shipment.
//
// The incremental path retries transient failures (per call, then per
// round via reseed) but never excludes sites: a sticky coordinator's
// retained state is the whole point, so FailDegrade behaves like
// FailRetry here.
//
// Calls serialize on the plan's incremental sessions, and with Apply
// and DetectDelta; an ApplyDelta from elsewhere must not overlap a
// call.
func (p *Plan) DetectIncremental(ctx context.Context) (*Result, error) {
	p.incMu.Lock()
	defer p.incMu.Unlock()
	return p.detectIncrementalLocked(ctx, newFaultState(p.cl, p.opt))
}

func (p *Plan) detectIncrementalLocked(ctx context.Context, fs *faultState) (*Result, error) {
	res, total, err := p.pass(ctx, fs, time.Now(), true)
	if err != nil {
		return nil, err
	}
	p.finishFailure(res, total, fs)
	return res, nil
}

// DetectDelta applies the given per-site deltas and runs one
// incremental round: the ΔD-in, changes-out serving shape. The apply
// happens under the plan's incremental lock, so concurrent
// DetectDelta/DetectIncremental calls on this plan serialize instead
// of racing mutation against a running round. (Mutating the cluster
// from elsewhere while any detection runs remains unsupported, as for
// all mutation.) The applies go through the round's failure view, so
// the round's Retries and Faults count theirs.
func (p *Plan) DetectDelta(ctx context.Context, deltas map[int]relation.Delta) (*Result, error) {
	p.incMu.Lock()
	defer p.incMu.Unlock()
	fs := newFaultState(p.cl, p.opt)
	if _, err := applyDeltas(ctx, p.cl, fs, deltas); err != nil {
		return nil, err
	}
	return p.detectIncrementalLocked(ctx, fs)
}

// Apply applies one delta at one site: DetectDelta's apply half, under
// the plan's incremental lock and through a failure view of the plan's
// options, so under FailRetry an apply whose reply was lost is
// re-issued and lands once.
func (p *Plan) Apply(ctx context.Context, site int, d relation.Delta) (DeltaInfo, error) {
	p.incMu.Lock()
	defer p.incMu.Unlock()
	infos, err := applyDeltas(ctx, p.cl, newFaultState(p.cl, p.opt), map[int]relation.Delta{site: d})
	if err != nil {
		return DeltaInfo{}, err
	}
	return infos[site], nil
}

// applyDeltas applies per-site deltas at every site at once through
// fs.sites, returning each site's DeltaInfo by site index: each site's
// generation counter is its own, so no order across sites is needed
// for them to replay identically. Each apply's nonce is minted here,
// above the failure hook, so a re-issued apply dedups at the site. A
// site index outside the cluster is refused before anything applies.
func applyDeltas(ctx context.Context, cl *Cluster, fs *faultState, deltas map[int]relation.Delta) ([]DeltaInfo, error) {
	for i := range deltas {
		if i < 0 || i >= cl.N() {
			return nil, fmt.Errorf("core: delta for site %d of %d", i, cl.N())
		}
	}
	infos := make([]DeltaInfo, cl.N())
	err := cl.parallelCtx(ctx, func(ctx context.Context, i int) (err error) {
		d, ok := deltas[i]
		if !ok {
			return nil
		}
		if infos[i], err = fs.sites[i].ApplyDelta(ctx, d, cl.newTask("delta")); err != nil {
			return fmt.Errorf("core: applying delta at site %d: %w", i, err)
		}
		return nil
	})
	return infos, err
}
