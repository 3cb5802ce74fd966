package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"distcfd/internal/cfd"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
)

// This file is the site half of incremental detection: every site
// keeps a fragment generation counter, a bounded log of applied deltas
// (inserted tuples and the removed tuples' values), and — when it
// coordinates σ-blocks for an incremental session — retained
// per-(CFD, block) group states (engine.IncrementalState) that delta
// blocks are folded into. ApplyDelta additionally maintains the
// serving caches of plan-once/detect-many (σ-routing entries, the
// constant-unit matched sets) generation by generation — an O(|Δ|)
// refresh rather than a reset — so a fresh full Detect after deltas is
// cheap too.

// Bounds. A driver that falls further behind than the log keeps (or
// whose session was evicted) gets a stale error and reseeds.
const (
	deltaLogCap = 512
	sessionsCap = 32
)

// ErrStaleIncremental reports that a site cannot serve an incremental
// request from retained state — the delta log was trimmed past the
// driver's watermark, the session is unknown (evicted, or lost with a
// restart), or it folded a different spec. The driver recovers by
// reseeding: one full shipment rebuilds the retained state, and
// subsequent rounds are incremental again.
var ErrStaleIncremental = errors.New("core: incremental state stale — full reseed required")

// IsStaleIncremental reports whether err is the stale-state signal:
// ErrStaleIncremental in its chain (every in-process producer wraps
// it), or the typed CodeStale the remote layer's error envelope
// carries across the wire. The message text is never consulted — a
// site error that merely quotes the phrase is not a reason to reseed.
func IsStaleIncremental(err error) bool {
	return errors.Is(err, ErrStaleIncremental) || ErrCodeOf(err) == CodeStale
}

// DeltaInfo reports the site state after an ApplyDelta.
type DeltaInfo struct {
	// Gen is the fragment generation after the delta: one per apply.
	Gen int64
	// NumTuples is the new fragment size |Di|.
	NumTuples int
}

// DeltaBlocks is the σ-routed view of a site's delta log suffix: per
// requested block, the inserted and the deleted tuples projected onto
// the task attributes. Empty blocks are omitted.
type DeltaBlocks struct {
	// ToGen is the generation the extraction covers up to — the
	// driver's next watermark for this site.
	ToGen int64
	// Ins and Del map block index → projected tuples.
	Ins, Del map[int]*relation.Relation
	Counts   []int // an extract's σ counts as of ToGen (SigmaStats'); unused in Shipped
}

// FoldArgs parameterizes a coordinator's incremental detection step.
type FoldArgs struct {
	// Session names the retained state; minted once per (plan unit,
	// seed) by the driver, never reused.
	Session string
	// Spec is the σ-partitioning in effect.
	Spec *BlockSpec
	// Blocks lists every block this site coordinates for the session.
	Blocks []int
	// CFDs are the dependencies checked inside each block. With
	// RestrictSingle (a unit with exactly one variable view), CFDs holds
	// exactly one entry and each block checks the Lemma 6 restriction of
	// it; otherwise every CFD's full tableau is checked per block.
	CFDs           []*cfd.CFD
	RestrictSingle bool
	// Seed resets the session's states and folds the full local blocks
	// (Shipped then carries the other sites' full blocks as inserts).
	Seed bool
	// FromGen is the local-delta watermark: non-seed folds consume the
	// log suffix after it for the session's blocks.
	FromGen int64
	// Shipped carries the other sites' delta blocks for this
	// coordinator, one entry per source site (ToGen unused). Every
	// block must be one of Blocks, projected exactly as the fold is.
	Shipped []*DeltaBlocks
}

// FoldReply reports a coordinator's fold: per CFD, the X-patterns that
// started (Added) and stopped (Removed) violating since the session's
// last reply — a seed adds every current one — once per block state
// that holds them, and the generation the local fold advanced to.
type FoldReply struct {
	Added, Removed []*relation.Relation
	ToGen          int64
}

// deltaLogEntry is one applied delta: the inserted tuples and the
// removed tuples' values (full schema), which is all downstream state
// needs — σ-routing and group folding are value-based.
type deltaLogEntry struct {
	gen int64
	ins []relation.Tuple
	del []relation.Tuple
}

// foldSession is the retained coordinator state of one incremental
// session: per block, one IncrementalState per folded CFD.
type foldSession struct {
	specFP string
	states map[int][]*engine.IncrementalState
	schema *relation.Schema // the task projection the states fold
}

// ApplyDelta applies d to the fragment, advances the generation, logs
// the delta, and maintains the serving caches in place. It is the only
// writer of the site's rows and must not run concurrently with
// detection on this site; concurrent readers holding the previous
// encoded view stay consistent (see relation.Apply). A duplicate nonce
// marks the retransmit of an apply that already landed; the remembered
// DeltaInfo is returned without applying twice.
func (s *Site) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (DeltaInfo, error) {
	if err := ctx.Err(); err != nil {
		return DeltaInfo{}, err
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if nonce != "" {
		if info, dup := s.deltaNonces.get(nonce); dup {
			return info, nil
		}
	}
	// The shape check runs before the predicate reads an insert's
	// attributes: a short tuple must be an error, not an index panic.
	delIdx, err := d.Check(s.frag.Schema(), s.frag.Len())
	if err != nil {
		return DeltaInfo{}, err
	}
	for i, t := range d.Inserts {
		if !s.pred.IsTrue() && !s.pred.Eval(s.frag.Schema(), t) {
			// Di = σFi(D) is an invariant the Fi ∧ Fφ pruning relies on;
			// silently accepting a tuple the predicate excludes would
			// make both fresh and incremental detection skip it.
			return DeltaInfo{}, fmt.Errorf("core: site %d: delta insert %d violates the fragment predicate %v", s.id, i, s.pred)
		}
	}
	s.sigma.begin()
	s.consts.begin()
	removed, err := s.frag.Apply(d)
	if err != nil {
		s.sigma.maintain(nil)
		s.consts.maintain(nil)
		return DeltaInfo{}, err
	}
	s.gen++
	s.dlog = append(s.dlog, deltaLogEntry{gen: s.gen, ins: d.Inserts, del: removed})
	if len(s.dlog) > deltaLogCap {
		drop := len(s.dlog) - deltaLogCap
		s.dlogStart = s.dlog[drop-1].gen
		s.dlog = append(s.dlog[:0:0], s.dlog[drop:]...)
	}
	s.maintainSigma(delIdx, d.Inserts)
	s.maintainConsts(removed, d.Inserts)
	info := DeltaInfo{Gen: s.gen, NumTuples: s.frag.Len()}
	if nonce != "" {
		s.deltaNonces.put(nonce, info)
	}
	return info, nil
}

// Generation returns the fragment generation (for tests and tooling).
func (s *Site) Generation() int64 {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	return s.gen
}

// maintainSigma rolls every cached σ-routing entry forward across one
// delta (see servingCache.maintain).
func (s *Site) maintainSigma(delIdx []int, ins []relation.Tuple) {
	s.sigma.maintain(func(ent *sigmaEntry) bool {
		// The lookup cannot fail for entries built against this schema;
		// if it does, reset rather than serve wrong routing.
		xi, err := s.frag.Schema().Indices(ent.spec.X)
		if err == nil {
			ent.applyDelta(delIdx, ins, xi)
		}
		return err == nil
	})
}

// maintainConsts folds one delta into every cached constant-unit state.
func (s *Site) maintainConsts(removed, ins []relation.Tuple) {
	s.consts.maintain(func(ent *constEntry) bool {
		ent.out.Store(nil) // the cached extraction no longer matches
		if ent.st.HasUnits() {
			for _, t := range removed {
				ent.st.Delete(t)
			}
			for _, t := range ins {
				ent.st.Insert(t)
			}
		}
		return true
	})
}

// ExtractDeltaBlocks implements SiteAPI: the σ-routed log suffix after
// fromGen (or, seeding with fromGen < 0, the full current blocks as
// inserts), projected onto attrs, for the wanted blocks, beside the
// spec's σ counts.
func (s *Site) ExtractDeltaBlocks(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int, fromGen int64) (*DeltaBlocks, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := spec.check(wanted...); err != nil {
		return nil, err
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	out := &DeltaBlocks{ToGen: s.gen, Ins: map[int]*relation.Relation{}, Del: map[int]*relation.Relation{}}
	var err error
	if fromGen < 0 {
		// Seed: ship the full current blocks as one big insert delta.
		full, err := s.fullBlocks(spec, attrs, wanted, s.frag.Schema().Name()+"_ship")
		if err != nil {
			return nil, err
		}
		for l, r := range full {
			if r.Len() > 0 {
				out.Ins[l] = r
			}
		}
	} else if out.Ins, out.Del, err = s.routeLogSuffix(spec, attrs, wanted, fromGen); err != nil {
		return nil, err
	}
	ent, err := s.assignAll(spec)
	if err != nil {
		return nil, err
	}
	out.Counts = slices.Clone(ent.counts)
	return out, nil
}

// routeLogSuffix σ-routes every logged tuple after fromGen and
// projects the ones landing in a wanted block. It is where a suffix the
// log cannot serve reads as stale: fromGen lies outside (dlogStart,
// gen]. Callers hold deltaMu.
func (s *Site) routeLogSuffix(spec *BlockSpec, attrs []string, wanted []int, fromGen int64) (ins, del map[int]*relation.Relation, err error) {
	if fromGen < s.dlogStart || fromGen > s.gen {
		return nil, nil, fmt.Errorf("%w (site %d: asked from generation %d, log covers (%d,%d])",
			ErrStaleIncremental, s.id, fromGen, s.dlogStart, s.gen)
	}
	schema := s.frag.Schema()
	xi, err := schema.Indices(spec.X)
	if err != nil {
		return nil, nil, err
	}
	ai, err := schema.Indices(attrs)
	if err != nil {
		return nil, nil, err
	}
	ps, err := schema.Project(schema.Name()+"_ship", attrs)
	if err != nil {
		return nil, nil, err
	}
	wantedSet := make(map[int]bool, len(wanted))
	for _, l := range wanted {
		wantedSet[l] = true
	}
	insRows := map[int][]relation.Tuple{}
	delRows := map[int][]relation.Tuple{}
	xv := make([]string, len(xi))
	route := func(t relation.Tuple, into map[int][]relation.Tuple) {
		for j, c := range xi {
			xv[j] = t[c]
		}
		if l := spec.Assign(xv); l >= 0 && wantedSet[l] {
			into[l] = append(into[l], t.Project(ai))
		}
	}
	for _, e := range s.dlog {
		if e.gen <= fromGen {
			continue
		}
		for _, t := range e.ins {
			route(t, insRows)
		}
		for _, t := range e.del {
			route(t, delRows)
		}
	}
	build := func(rows map[int][]relation.Tuple) (map[int]*relation.Relation, error) {
		out := make(map[int]*relation.Relation, len(rows))
		for l, ts := range rows {
			r, err := relation.FromTuples(ps, ts)
			if err != nil {
				return nil, err
			}
			out[l] = r
		}
		return out, nil
	}
	if ins, err = build(insRows); err != nil {
		return nil, nil, err
	}
	if del, err = build(delRows); err != nil {
		return nil, nil, err
	}
	return ins, del, nil
}

// FoldDetect implements SiteAPI: the coordinator's incremental step.
func (s *Site) FoldDetect(ctx context.Context, args FoldArgs) (*FoldReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(args.CFDs) == 0 {
		return nil, fmt.Errorf("core: site %d: FoldDetect with no CFDs", s.id)
	}
	if args.RestrictSingle && len(args.CFDs) != 1 {
		return nil, fmt.Errorf("core: site %d: RestrictSingle with %d CFDs", s.id, len(args.CFDs))
	}
	if err := args.Spec.check(args.Blocks...); err != nil {
		return nil, err
	}
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()

	attrs := taskAttrs(args.Spec, args.CFDs)
	schema := s.frag.Schema()
	ps, err := schema.Project(schema.Name()+"_fold", attrs)
	if err != nil {
		return nil, err
	}
	if err := checkShipped(args, ps); err != nil {
		return nil, fmt.Errorf("core: site %d: %w", s.id, err)
	}

	sess, err := s.foldSessionFor(args, ps)
	if err != nil {
		return nil, err
	}

	// Local contribution: full blocks on seed, the routed log suffix
	// otherwise (the coordinator's own delta never ships).
	var localIns, localDel map[int]*relation.Relation
	if args.Seed {
		localIns, err = s.fullBlocks(args.Spec, attrs, args.Blocks, schema.Name()+"_fold")
		if err != nil {
			return nil, err
		}
	} else {
		localIns, localDel, err = s.routeLogSuffix(args.Spec, attrs, args.Blocks, args.FromGen)
		if err != nil {
			return nil, err
		}
	}

	for _, l := range args.Blocks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		states, err := sess.statesFor(l, args)
		if err != nil {
			return nil, err
		}
		for _, st := range states {
			if err := st.FoldRelation(localIns[l], true); err != nil {
				return nil, err
			}
			if err := st.FoldRelation(localDel[l], false); err != nil {
				return nil, err
			}
			for _, db := range args.Shipped {
				if err := st.FoldRelation(db.Ins[l], true); err != nil {
					return nil, err
				}
			}
			for _, db := range args.Shipped {
				if err := st.FoldRelation(db.Del[l], false); err != nil {
					return nil, err
				}
			}
		}
	}

	// A seed replies with every block's full set and starts tracking
	// flips; a later fold replies with the flips since the last reply.
	added, err := emptyPatternRelations(schema, args.CFDs)
	if err != nil {
		return nil, err
	}
	reply := &FoldReply{Added: added, Removed: make([]*relation.Relation, len(added)), ToGen: s.gen}
	for ci := range args.CFDs {
		reply.Removed[ci] = relation.New(added[ci].Schema())
		for _, l := range args.Blocks {
			if st := sess.states[l][ci]; args.Seed {
				st.Patterns(added[ci])
				st.TrackChanges()
			} else {
				st.Changes(added[ci], reply.Removed[ci])
			}
		}
	}
	return reply, nil
}

// checkShipped rejects, before anything folds, a shipped block the fold
// would skip or misread: one outside args.Blocks, or one whose
// attributes are not exactly the fold projection ps (FoldRelation
// checks only the width, so another order would fold the wrong
// columns).
func checkShipped(args FoldArgs, ps *relation.Schema) error {
	for _, db := range args.Shipped {
		for _, blocks := range [2]map[int]*relation.Relation{db.Ins, db.Del} {
			for l, r := range blocks {
				if !slices.Contains(args.Blocks, l) {
					return fmt.Errorf("shipped block %d is not one of the fold's blocks %v", l, args.Blocks)
				}
				if r != nil && !slices.Equal(r.Schema().Attrs(), ps.Attrs()) {
					return fmt.Errorf("shipped block %d has attributes %v, the fold projects %v", l, r.Schema().Attrs(), ps.Attrs())
				}
			}
		}
	}
	return nil
}

// foldSessionFor resolves (or, seeding, resets) the named session.
// Callers hold deltaMu; the sessions map has its own lock because
// DropSession must work even while a fold is running elsewhere.
func (s *Site) foldSessionFor(args FoldArgs, ps *relation.Schema) (*foldSession, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if args.Seed {
		if len(s.sessions) >= sessionsCap {
			s.sessions = make(map[string]*foldSession)
		}
		sess := &foldSession{
			specFP: args.Spec.Fingerprint(),
			states: make(map[int][]*engine.IncrementalState),
			schema: ps,
		}
		s.sessions[args.Session] = sess
		return sess, nil
	}
	sess, ok := s.sessions[args.Session]
	if !ok {
		return nil, fmt.Errorf("%w (site %d: unknown session %q)", ErrStaleIncremental, s.id, args.Session)
	}
	if sess.specFP != args.Spec.Fingerprint() {
		return nil, fmt.Errorf("%w (site %d: session %q folded a different spec)", ErrStaleIncremental, s.id, args.Session)
	}
	return sess, nil
}

// statesFor returns (creating on first touch) the per-CFD states of
// one block. Blocks born after the seed — empty cluster-wide when the
// session started — begin empty here and receive their entire content
// as deltas, which reconstructs them exactly (and tracks flips from empty).
func (sess *foldSession) statesFor(l int, args FoldArgs) ([]*engine.IncrementalState, error) {
	if states := sess.states[l]; states != nil {
		if len(states) != len(args.CFDs) {
			return nil, fmt.Errorf("%w (block %d folded %d CFDs, asked %d)",
				ErrStaleIncremental, l, len(states), len(args.CFDs))
		}
		return states, nil
	}
	states := make([]*engine.IncrementalState, len(args.CFDs))
	for ci, c := range args.CFDs {
		folded := c
		if args.RestrictSingle {
			folded = args.Spec.RestrictCFD(c, l)
		}
		st, err := engine.NewIncrementalState(sess.schema, folded, false)
		if err != nil {
			return nil, err
		}
		if !args.Seed {
			st.TrackChanges()
		}
		states[ci] = st
	}
	sess.states[l] = states
	return states, nil
}

// DropSession implements SiteAPI: release a session's retained states.
func (s *Site) DropSession(session string) error {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	delete(s.sessions, session)
	return nil
}
