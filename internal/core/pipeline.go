package core

import (
	"context"
	"fmt"
	"slices"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// run executes one attempt of the unit — the pipeline of Section IV-B,
// which Section IV-C runs once per cluster:
//
//  1. constant units of every member that has one, locally at every
//     site (Prop. 5),
//  2. Fi ∧ Fφ pruning, parallel local statistics + exchange (control
//     traffic), coordinator assignment per the algorithm's policy
//     (assignBlocks),
//  3. movement and detection: a fresh run (st == nil) ships every
//     non-local σ-block to its coordinator and detects there
//     (shipAndDetect); an incremental round (foldDeltas, incremental.go)
//     charges those shipments to the accounting — after its seed, on its
//     extract's counts — and moves only deltas in and flips out.
func (u *unit) run(ctx context.Context, fs *faultState, st *unitInc) (*unitOut, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cl := u.cl
	m := dist.NewMetrics(cl.N())
	fragSizes, err := cl.fragmentSizes()
	if err != nil {
		return nil, err
	}

	pats := make([]*relation.Relation, len(u.group))
	for ci, c := range u.group {
		var parts []*relation.Relation
		if u.constant[ci] {
			if parts, err = detectConstantsEverywhere(ctx, cl, fs, c); err != nil {
				return nil, err
			}
		}
		pats[ci] = mergeDistinct(u.schemas[ci], parts)
	}

	out := &unitOut{pats: pats, m: m, report: UnitReport{Spec: u.spec, MinedPatterns: u.mined, LocalOnly: true}}
	var views []*relation.Relation
	if u.spec != nil {
		for _, cb := range u.control {
			cl.broadcastControl(m, cb.from, cb.bytes)
		}
		if st == nil {
			prunedSite, lstat, coords, err := u.assignBlocks(ctx, fs, m, fragSizes, u.sigmaStats(fs))
			if err != nil {
				return nil, err
			}
			parts, err := u.shipAndDetect(ctx, fs, m, prunedSite, lstat, coords)
			if err != nil {
				return nil, err
			}
			for vi, ci := range u.viewIdx {
				pats[ci] = mergeDistinct(u.schemas[ci], append([]*relation.Relation{pats[ci]}, parts[vi]...))
			}
			out.report.Coordinators = coords
		} else if out.report.Coordinators, views, err = u.foldDeltas(ctx, fs, m, fragSizes, st); err != nil {
			return nil, err
		}
		out.report.LocalOnly = m.TotalTuples() == 0
	}
	for ci, c := range u.group {
		if err := pats[ci].SortBy(c.X...); err != nil {
			return nil, err
		}
	}
	// An incremental round's views come back sorted; a constant part merges in.
	for vi, v := range views {
		ci := u.viewIdx[vi]
		if pats[ci], err = pats[ci].MergeSorted(v, nil, u.group[ci].X...); err != nil {
			return nil, err
		}
	}
	checkSizes := make([]int, cl.N())
	for i := range checkSizes {
		checkSizes[i] = fragSizes[i] + int(m.ReceivedBy(i))
	}
	out.report.CheckSizes = checkSizes
	out.modeled = costModel.ResponseTime(m, checkSizes)
	return out, nil
}

// detectConstantsEverywhere runs the Proposition 5 local check of c's
// constant units at every site in parallel. Excluded sites contribute
// nothing — their fragment is unreachable.
func detectConstantsEverywhere(ctx context.Context, cl *Cluster, fs *faultState, c *cfd.CFD) ([]*relation.Relation, error) {
	parts := make([]*relation.Relation, cl.N())
	err := cl.parallelCtx(ctx, func(ctx context.Context, i int) (err error) {
		if fs.isExcluded(i) {
			return nil
		}
		parts[i], err = fs.sites[i].DetectConstantsLocal(ctx, c)
		return err
	})
	return parts, err
}

// pruneMatrix evaluates Fi ∧ Fφ satisfiability for every site and
// pattern (Section IV-A). prunedSite[i] is true when site i is pruned
// for every pattern; prunedBlock[i][l] prunes individual pairs.
func pruneMatrix(preds []relation.Predicate, spec *BlockSpec) (prunedSite []bool, prunedBlock [][]bool) {
	n := len(preds)
	prunedSite = make([]bool, n)
	prunedBlock = make([][]bool, n)
	for i := 0; i < n; i++ {
		prunedBlock[i] = make([]bool, spec.K())
		if preds[i].IsTrue() {
			continue // unknown predicate: nothing provable
		}
		all := true
		for l := 0; l < spec.K(); l++ {
			if !preds[i].ConsistentWith(spec.PatternPredicate(l)) {
				prunedBlock[i][l] = true
			} else {
				all = false
			}
		}
		prunedSite[i] = all
	}
	return prunedSite, prunedBlock
}

// assignBlocks is the data-dependent preamble every run of the σ-block
// pipeline shares: pruning, per-site block statistics from stats (a
// vector of the wrong length or with a negative count is refused), the
// statistics exchange charged to m's control plane, and the coordinator
// assignment. lstat[i][l] = |H_i^l| with pruned pairs zeroed; coords[l]
// is block l's coordinator (-1 = empty block).
func (u *unit) assignBlocks(ctx context.Context, fs *faultState, m *dist.Metrics, fragSizes []int, stats func(ctx context.Context, i int) ([]int, error)) (prunedSite []bool, lstat [][]int, coords []int, err error) {
	cl, spec := u.cl, u.spec
	prunedSite, prunedBlock := pruneMatrix(cl.preds, spec)
	// A degraded run treats excluded sites like fully pruned ones — no
	// statistics, no shipping, nothing received — except that pruning
	// keeps them coordinator-eligible while exclusion does not.
	for i := range prunedSite {
		if fs.isExcluded(i) {
			prunedSite[i] = true
		}
	}

	lstat = make([][]int, cl.N())
	if err := cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
		if prunedSite[i] {
			lstat[i] = make([]int, spec.K())
			return nil
		}
		s, err := stats(ctx, i)
		if err != nil {
			return err
		}
		if len(s) != spec.K() || slices.Min(s) < 0 {
			return fmt.Errorf("core: site %d reported block counts %v for %d blocks", i, s, spec.K())
		}
		for l := range s {
			if prunedBlock[i][l] {
				s[l] = 0
			}
		}
		lstat[i] = s
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	// Statistics exchange: involved sites broadcast their lstat vector.
	for i := 0; i < cl.N(); i++ {
		if !prunedSite[i] {
			cl.broadcastControl(m, i, int64(8*spec.K()))
		}
	}
	return prunedSite, lstat, assign(u.algo, lstat, fragSizes, costModel, fs.eligible()), nil
}

// sigmaStats is assignBlocks' statistics source but for a round's extract.
func (u *unit) sigmaStats(fs *faultState) func(ctx context.Context, i int) ([]int, error) {
	return func(ctx context.Context, i int) ([]int, error) { return fs.sites[i].SigmaStats(ctx, u.spec) }
}

// shipAndDetect is the movement half of a fresh run: parallel shipping
// of non-local blocks (each tuple at most once) and parallel detection
// at the coordinators. It returns parts[vi][j], the X-patterns of
// u.views[vi] found at coordinator site j (nil when j coordinated no
// blocks).
//
// The context is checked at every phase boundary and inside the
// shipping loop; once shipping has begun, any failure or cancellation
// cancels the task at every site (drain + tombstone), so a run the
// driver gave up on cannot leave deposits behind — not even a batch
// that was still in flight when the driver stopped waiting.
func (u *unit) shipAndDetect(ctx context.Context, fs *faultState, m *dist.Metrics, prunedSite []bool, lstat [][]int, coords []int) ([][]*relation.Relation, error) {
	cl, spec := u.cl, u.spec
	// Shipping. From here on the run owns deposit buffers at other
	// sites: every exit that abandons the run must cancel the task
	// (drain + tombstone), or repeated failed runs against long-lived
	// sites grow memory without bound — task keys are never reused.
	attrs := taskAttrs(spec, u.views)
	task := cl.newTask("blocks")
	if err := cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
		if prunedSite[i] {
			return nil
		}
		var wanted []int
		for l, coord := range coords {
			if coord >= 0 && coord != i && lstat[i][l] > 0 {
				wanted = append(wanted, l)
			}
		}
		if len(wanted) == 0 {
			return nil
		}
		batches, err := fs.sites[i].ExtractBlocksBatch(ctx, spec, attrs, wanted)
		if err != nil {
			return err
		}
		for _, l := range wanted {
			if err := ctx.Err(); err != nil {
				return err
			}
			batch := batches[l]
			if err := checkBlockLen(i, l, batch, lstat[i][l]); err != nil {
				return err
			}
			if batch == nil || batch.Len() == 0 {
				continue
			}
			if u.opt.NoPackedShip {
				batch.DropPacked()
			}
			// The nonce is minted above the failure hook's retry loop: a
			// retried deposit whose first attempt landed dedups at the site.
			if err := fs.sites[coords[l]].Deposit(ctx, BlockTask(task, l), batch, cl.newTask("dep")); err != nil {
				return err
			}
			m.ShipTuples(i, coords[l], batch.BagLen(), dist.RelationBytes(batch))
		}
		return nil
	}); err != nil {
		cl.cancelTask(task)
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		cl.cancelTask(task)
		return nil, err
	}

	// Detection at the coordinators.
	bySite := blocksBySite(coords, cl.N())
	parts := make([][]*relation.Relation, len(u.views))
	for vi := range parts {
		parts[vi] = make([]*relation.Relation, cl.N())
	}
	if err := cl.parallelCtx(ctx, func(ctx context.Context, j int) error {
		if len(bySite[j]) == 0 {
			return nil
		}
		perCFD, err := fs.sites[j].DetectAssignedSet(ctx, task, spec, bySite[j], u.views)
		if err == nil {
			err = checkHeld(j, bySite[j], lstat, u.views, perCFD)
		}
		if err != nil {
			return err
		}
		for vi := range u.views {
			parts[vi][j] = perCFD[vi]
		}
		return nil
	}); err != nil {
		// Coordinators consume deposits as they detect; a partial
		// failure leaves the other coordinators' buffers behind.
		cl.cancelTask(task)
		return nil, err
	}
	return parts, nil
}

// checkHeld refuses a reply whose patterns for a CFD outnumber the
// tuples site j's blocks hold: each is the group of one of them.
func checkHeld(j int, blocks []int, lstat [][]int, cfds []*cfd.CFD, sets []*relation.Relation) error {
	held := 0
	for _, l := range blocks {
		for _, counts := range lstat {
			held += counts[l]
		}
	}
	for vi, set := range sets {
		if set != nil && set.Len() > held {
			return fmt.Errorf("core: site %d replied %d patterns for %s, but its blocks hold %d tuples", j, set.Len(), cfds[vi].Name, held)
		}
	}
	return nil
}

// checkBlockLen refuses, before anything forwards it, an extracted block
// standing for more tuples than its σ count (a packed block's Len and
// a counted one's Σ counts are what they announce).
func checkBlockLen(i, l int, b *relation.Relation, count int) error {
	if b != nil && b.BagLen() > count {
		return fmt.Errorf("core: site %d extracted %d tuples for block %d, whose σ count is %d", i, b.BagLen(), l, count)
	}
	return nil
}
