// Package engine is a small relational execution engine: hash join and
// semijoin over in-memory relations, plus the fast CFD violation
// detector that plays the role of the SQL-based detection queries of
// Fan et al. [2] — the `check(D, Σ)` step the paper's cost model
// charges at every site.
package engine

import (
	"math"
	"math/bits"
	"sync"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// The fast detector — the paper's check(D, Σ). It runs once per CFD
// (X → Y, Tp), with the whole pattern tableau joined in, as the Qc/Qv
// query pair of [2]:
//
//   - the row filter: each X column admits the IDs the tableau's live
//     patterns name there (a pattern naming a constant the source never
//     interned matches nothing and drops out); a column some pattern
//     leaves wildcard admits every row;
//   - one grouping: the admitted rows group by their full X projection.
//     Whether a row matches a pattern depends only on its X-values, so
//     among the rows matching pattern p these are exactly the groups of
//     p's wildcard positions. A column every live pattern pins to one
//     constant is filtered, not folded;
//   - per RHS attribute A, Qv: one pass finds the groups holding more
//     than one A-value; such a group violates when its X-value matches a
//     pattern with tp[A] the wildcard — decided once per mixed group —
//     and all its rows are marked (GROUP BY … HAVING COUNT(DISTINCT A)>1);
//   - per pattern whose tp[A] is a constant, Qc: one scan; t violates
//     iff t[X] ≍ tp[X] ∧ t[A] ≠ tp[A].
//
// The kernel runs on the whole dictionary-encoded ID columns of a
// column source (source.go): pattern constants are resolved to column
// IDs once per CFD, matching is fixed-width integer comparison, the
// group-by keys on dense group IDs through the map-free fold of
// relation.Fold, and violations accumulate in a row-indexed bitset — sorted
// output falls out of iteration order, with no per-call map or sort.
// The filter, the scans and the mixed-group pass can additionally be
// sharded across an intra-call worker budget; per-shard group states
// merge associatively, so the parallel kernel is byte-identical to the
// serial one. The violating X-patterns are read off the group IDs.
// DetectRows (rows.go) keeps the per-unit string-key reference path.
// Semantics match internal/cfd.NaiveViolations, the test oracle.

// noGroup marks rows excluded from the grouping (no live pattern admits
// them): the fold's own sentinel.
const noGroup = relation.NoGroup

// wildID marks a wildcard position of a resolved pattern, and an X
// position that more than one ID may occupy. Column IDs are bounded by
// their dictionary, so it is never a real ID.
const wildID = math.MaxUint32

// scratchShrinkRows bounds the per-row, per-group and per-pattern
// buffers (gids, state, first, rep, bits, shard states, the resolved
// tableau and its admissible-ID bitmaps) a pooled scratch may retain:
// past it the buffers are dropped wholesale when the scratch returns to
// its pool, so one huge call cannot permanently inflate a long-lived
// compiled plan's scratch (the same wholesale reset the sites' serving
// caches use).
const scratchShrinkRows = 1 << 21

// detectScratch carries the column source and the reusable buffers of
// one detection call so consecutive CFDs do not reallocate them.
// Scratches are pooled per Kernel and reused across calls.
type detectScratch struct {
	src source

	// The CFD under check, resolved against the source: pats holds each
	// live pattern's X IDs (wildID at a wildcard), len(X) apiece, live
	// its row in the tableau, xs each X position's restriction, and
	// admit the admissible-ID bitmaps of the positions several IDs may
	// occupy.
	pats  []uint32
	live  []int
	xs    []xPos
	admit []uint64

	gids   []uint32 // per-row group id, noGroup when filtered out
	groups int      // the group-ID bound of the grouping in gids
	state  []uint8  // per-group: 0 unseen, 1 single A, 2 mixed
	first  []uint32 // per-group first A id (valid when state≥1)
	rep    []uint32 // per-group first row, when a mixed group's X is matched
	fold   relation.Fold

	// Violation bitset: bit i set ⇔ row i violates. Shared across the
	// CFDs of one call; ascending iteration replaces the old
	// map[int]struct{} + sort.Ints.
	bits []uint64

	// Flat per-extra-shard group states of the parallel mixed-group
	// pass: shard s ∈ [1, workers) uses groups [(s-1)·num, s·num).
	shardState []uint8
	shardFirst []uint32
	shardRep   []uint32
}

// xPos is one X position of the CFD under check, as its live patterns
// constrain it: pinned to one ID (id; filtered, not folded), to a set of
// IDs (the bitmap at admit[bm:]; filtered and folded), or to nothing
// (folded). ids is the position's whole column.
type xPos struct {
	col int
	ids []uint32
	id  uint32 // the one ID every live pattern names here, else wildID
	bm  int    // offset of the admissible-ID bitmap, −1 when none
}

// folded reports whether the grouping folds the position in.
func (x *xPos) folded() bool { return x.id == wildID }

// sized returns buf with length n, reallocating when its capacity falls
// short; what it holds is unspecified until the caller clears or fills it.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// groupBufs returns the per-group state (cleared), first-A and, when
// reps, first-row buffers.
func (sc *detectScratch) groupBufs(num int, reps bool) (state []uint8, first, rep []uint32) {
	sc.state, sc.first = sized(sc.state, num), sized(sc.first, num)
	clear(sc.state)
	if reps {
		sc.rep = sized(sc.rep, num)
		rep = sc.rep
	}
	return sc.state, sc.first, rep
}

// shardBufs returns cleared flat state/first(/rep) buffers for extra
// shards.
func (sc *detectScratch) shardBufs(extra, num int, reps bool) (state []uint8, first, rep []uint32) {
	sc.shardState, sc.shardFirst = sized(sc.shardState, extra*num), sized(sc.shardFirst, extra*num)
	clear(sc.shardState)
	if reps {
		sc.shardRep = sized(sc.shardRep, extra*num)
		rep = sc.shardRep
	}
	return sc.shardState, sc.shardFirst, rep
}

// resetBits sizes and clears the violation bitset for rows rows.
func (sc *detectScratch) resetBits(rows int) {
	sc.bits = sized(sc.bits, (rows+63)>>6)
	clear(sc.bits)
}

func (sc *detectScratch) mark(i int) { sc.bits[i>>6] |= 1 << (uint(i) & 63) }

// nextSet returns the first violating row in [i, hi), or −1.
func (sc *detectScratch) nextSet(i, hi int) int {
	for i < hi {
		if w := sc.bits[i>>6] >> (uint(i) & 63); w != 0 {
			if i += bits.TrailingZeros64(w); i < hi {
				return i
			}
			return -1
		}
		i = (i | 63) + 1
	}
	return -1
}

// violations materializes the bitset as ascending row indices (nil
// when empty).
func (sc *detectScratch) violations() []int {
	n := 0
	for _, w := range sc.bits {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for wi, w := range sc.bits {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// release drops what a pooled scratch must not keep alive: the source
// and the column windows the X positions hold.
func (sc *detectScratch) release() {
	sc.src = source{}
	clear(sc.xs)
}

// shrink drops buffers grown past the retention bounds; called when
// the scratch returns to its pool. Each buffer is gated on its own
// capacity: the group buffers can exceed the row count (a sparse
// shared dictionary bounds groups, not rows) and the shard buffers
// are (workers−1)× the group space, so gating everything on gids
// would retain them far past the intended bound.
func (sc *detectScratch) shrink() {
	const n, words = scratchShrinkRows, scratchShrinkRows >> 6
	sc.pats, sc.live, sc.admit = bounded(sc.pats, n), bounded(sc.live, n), bounded(sc.admit, words)
	sc.gids, sc.bits = bounded(sc.gids, n), bounded(sc.bits, words)
	sc.state, sc.first, sc.rep = bounded(sc.state, n), bounded(sc.first, n), bounded(sc.rep, n)
	sc.shardState, sc.shardFirst, sc.shardRep = bounded(sc.shardState, n), bounded(sc.shardFirst, n), bounded(sc.shardRep, n)
	sc.fold.Shrink()
}

// bounded returns buf, or nil once its capacity exceeds n.
func bounded[T any](buf []T, n int) []T {
	if cap(buf) > n {
		return nil
	}
	return buf
}

// run binds the scratch to r and marks Vio(Σ, r) in the violation
// bitset: every CFD through the one kernel.
func (sc *detectScratch) run(r relation.ColumnReader, schema *relation.Schema, cs []*cfd.CFD, o Opts) error {
	sc.src.bind(r)
	sc.resetBits(sc.src.rows)
	for _, c := range cs {
		if err := c.Validate(schema); err != nil {
			return err
		}
		if err := sc.detectCFD(schema, c, o.Workers); err != nil {
			return err
		}
	}
	return nil
}

// each runs fn over the bound source's rows: as one span on the calling
// goroutine when w ≤ 1, through fan's row shards otherwise.
func (sc *detectScratch) each(w int, fn func(shard int, sp rowSpan)) {
	if w > 1 {
		fan(w, sc.src.rows, fn)
		return
	}
	fn(0, rowSpan{0, sc.src.rows})
}

// fan cuts [0, n) into w contiguous shards whose boundaries are
// multiples of 64 — two shards never share a word of the violation
// bitset — and runs fn on each concurrently; shard tells fn which
// per-shard state is its own.
func fan(w, n int, fn func(shard int, sp rowSpan)) {
	per := ((n+w-1)/w + 63) &^ 63 // w·per ≥ n: the last shard ends at n
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		sp := rowSpan{min(s*per, n), min((s+1)*per, n)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s, sp)
		}()
	}
	wg.Wait()
}

// detectCFD checks one CFD against the bound source, marking violating
// rows in the scratch bitset and leaving its grouping in sc.gids.
// workers > 1 shards the per-row loops; the folds stay serial
// (interning is order-dependent), and per-shard group states merge
// through the unseen/single/mixed lattice, so the result is identical
// at every worker count.
func (sc *detectScratch) detectCFD(schema *relation.Schema, c *cfd.CFD, workers int) error {
	src := &sc.src
	sc.groups = 0
	xi, err := schema.Indices(c.X)
	if err != nil {
		return err
	}
	yi, err := schema.Indices(c.Y)
	if err != nil {
		return err
	}
	if src.rows == 0 || !sc.resolve(c, xi) {
		return nil
	}
	if err := src.load(xi...); err != nil {
		return err
	}
	if err := src.load(yi...); err != nil {
		return err
	}
	for j := range sc.xs {
		sc.xs[j].ids = src.window(sc.xs[j].col, rowSpan{0, src.rows})
	}
	w := src.shards(workers)
	sc.groups = sc.groupRows(w)
	for k, aCol := range yi {
		variable, covered := false, false
		for p, t := range sc.live {
			pat := sc.pat(p)
			if tpA := c.Tp[t].RHS[k]; tpA != cfd.Wildcard {
				sc.scanConstant(pat, aCol, tpA, w)
				continue
			}
			variable = true
			covered = covered || sc.covers(pat)
		}
		if variable {
			sc.markMixed(c, k, aCol, covered, w)
		}
	}
	return nil
}

// resolve looks c's tableau up in the source's dictionaries: it keeps
// the live patterns (every constant interned) in sc.pats and sc.live,
// derives each X position's restriction into sc.xs and builds the
// admissible-ID bitmaps. False when no pattern is live: then no row can
// match and the CFD costs nothing more.
func (sc *detectScratch) resolve(c *cfd.CFD, xi []int) bool {
	dict := sc.src.r.ColumnDict
	nx := len(xi)
	sc.pats, sc.live = sc.pats[:0], sc.live[:0]
patterns:
	for t, tp := range c.Tp {
		base := len(sc.pats)
		for j, v := range tp.LHS {
			id := uint32(wildID)
			if v != cfd.Wildcard {
				var ok bool
				if id, ok = dict(xi[j]).Lookup(v); !ok {
					sc.pats = sc.pats[:base]
					continue patterns
				}
			}
			sc.pats = append(sc.pats, id)
		}
		sc.live = append(sc.live, t)
	}
	if len(sc.live) == 0 {
		return false
	}
	sc.xs = sized(sc.xs, nx)
	words := 0
	for j := range sc.xs {
		x := xPos{col: xi[j], id: sc.pats[j], bm: -1}
		several := false
		for k := j + nx; k < len(sc.pats) && x.id != wildID; k += nx {
			switch id := sc.pats[k]; {
			case id == wildID:
				x.id, several = wildID, false
			case id != x.id:
				several = true
			}
		}
		if several {
			x.id, x.bm = wildID, words
			words += (dict(x.col).Len() + 63) >> 6
		}
		sc.xs[j] = x
	}
	sc.admit = sized(sc.admit, words)
	clear(sc.admit)
	for j, x := range sc.xs {
		if x.bm < 0 {
			continue
		}
		for k := j; k < len(sc.pats); k += nx {
			id := sc.pats[k]
			sc.admit[x.bm+int(id>>6)] |= 1 << (id & 63)
		}
	}
	return true
}

// pat returns the p-th live pattern's X IDs.
func (sc *detectScratch) pat(p int) []uint32 {
	nx := len(sc.xs)
	return sc.pats[p*nx : (p+1)*nx]
}

// covers reports whether pat matches every row the filter admits: it
// names no constant at a folded position.
func (sc *detectScratch) covers(pat []uint32) bool {
	for j, id := range pat {
		if id != wildID && sc.xs[j].folded() {
			return false
		}
	}
	return true
}

// matches reports whether row's X-value matches pat.
func (sc *detectScratch) matches(pat []uint32, row int) bool {
	for j, id := range pat {
		if id != wildID && sc.xs[j].ids[row] != id {
			return false
		}
	}
	return true
}

// groupRows fills sc.gids with each row's dense group ID under the CFD's
// full X projection — noGroup for rows the filter excludes — and returns
// the group-ID bound. The admitted rows all share the pinned positions'
// IDs, so grouping by the folded positions alone partitions exactly like
// grouping by the full X projection.
func (sc *detectScratch) groupRows(w int) int {
	src := &sc.src
	sc.gids = sized(sc.gids, src.rows)
	gids := sc.gids
	lead := -1 // the first folded position: its IDs are the initial groups
	for j := range sc.xs {
		if sc.xs[j].folded() {
			lead = j
			break
		}
	}
	sc.each(w, func(_ int, sp rowSpan) {
		g := gids[sp.lo:sp.hi]
		if lead < 0 {
			clear(g) // an all-pinned X is one group, 0
		} else {
			copy(g, sc.xs[lead].ids[sp.lo:sp.hi])
		}
		for _, x := range sc.xs {
			col := x.ids[sp.lo:sp.hi]
			switch {
			case !x.folded():
				for i, v := range col {
					if v != x.id {
						g[i] = noGroup
					}
				}
			case x.bm >= 0:
				bm := sc.admit[x.bm:]
				for i, v := range col {
					if bm[v>>6]&(1<<(v&63)) == 0 {
						g[i] = noGroup
					}
				}
			}
		}
	})
	if lead < 0 {
		return 1
	}
	// Fold the remaining folded positions in, a whole column at a time.
	num := src.r.ColumnDict(sc.xs[lead].col).Len()
	for _, x := range sc.xs[lead+1:] {
		if x.folded() {
			num = sc.fold.Column(gids, x.ids, num, src.r.ColumnDict(x.col).Len())
		}
	}
	return num
}

// scanConstant is the Qc scan of one live pattern pat with the constant
// tpA: admitted rows matching pat whose A is not tpA.
func (sc *detectScratch) scanConstant(pat []uint32, aCol int, tpA string, w int) {
	src := &sc.src
	aID, aOK := src.r.ColumnDict(aCol).Lookup(tpA)
	sc.each(w, func(_ int, sp rowSpan) {
		g := sc.gids[sp.lo:sp.hi]
		for i, a := range src.window(aCol, sp) {
			if g[i] != noGroup && (!aOK || a != aID) && sc.matches(pat, sp.lo+i) {
				sc.mark(sp.lo + i)
			}
		}
	})
}

// markMixed is the Qv check of c's k-th RHS attribute, in column aCol:
// it walks the groups of sc.gids through the unseen/single/mixed state
// machine on A (HAVING COUNT(DISTINCT A) > 1) and marks every row of a
// mixed group whose X-value matches a pattern with tp[A] the wildcard.
// covered says some such pattern matches every admitted row; otherwise
// the match is decided once per mixed group, on its first row.
func (sc *detectScratch) markMixed(c *cfd.CFD, k, aCol int, covered bool, w int) {
	src := &sc.src
	num := sc.groups
	gids := sc.gids[:src.rows]
	state, firstA, rep := sc.groupBufs(num, !covered)
	// Shard 0 accumulates into the merge target directly; extra shards
	// into their own slices of the flat buffers.
	shardState, shardFirst, shardRep := sc.shardBufs(w-1, num, !covered)
	sc.each(w, func(s int, sp rowSpan) {
		st, fa, rp := state, firstA, rep
		if s > 0 {
			st = shardState[(s-1)*num : s*num]
			fa = shardFirst[(s-1)*num : s*num]
			if rp != nil {
				rp = shardRep[(s-1)*num : s*num]
			}
		}
		acol := src.window(aCol, sp)
		for i, g := range gids[sp.lo:sp.hi] {
			if g == noGroup {
				continue
			}
			v := acol[i]
			switch st[g] {
			case 0:
				st[g] = 1
				fa[g] = v
				if rp != nil {
					rp[g] = uint32(sp.lo + i)
				}
			case 1:
				if v != fa[g] {
					st[g] = 2
				}
			}
		}
	})
	if w > 1 {
		// Merge: unseen/single/mixed is a join-semilattice (unseen ⊑
		// single(a) ⊑ mixed, single(a) ⊔ single(b≠a) = mixed), so
		// shard order cannot matter to the state; shards merge in row
		// order, so a group's first row is its earliest shard's.
		// Sharded over the group space.
		fan(w, num, func(_ int, groups rowSpan) {
			for s := 0; s < w-1; s++ {
				st := shardState[s*num : (s+1)*num]
				fa := shardFirst[s*num : (s+1)*num]
				for g := groups.lo; g < groups.hi; g++ {
					if st[g] == 0 || state[g] == 2 {
						continue
					}
					switch {
					case state[g] == 0:
						state[g] = st[g]
						firstA[g] = fa[g]
						if rep != nil {
							rep[g] = shardRep[s*num+g]
						}
					case st[g] == 2 || fa[g] != firstA[g]:
						state[g] = 2
					}
				}
			}
		})
	}
	if !covered {
		// A mixed group no variable pattern matches goes back to single.
		for g, s := range state {
			if s != 2 {
				continue
			}
			matched := false
			for p, t := range sc.live {
				if c.Tp[t].RHS[k] == cfd.Wildcard && sc.matches(sc.pat(p), int(rep[g])) {
					matched = true
					break
				}
			}
			if !matched {
				state[g] = 1
			}
		}
	}
	sc.each(w, func(_ int, sp rowSpan) {
		for i := sp.lo; i < sp.hi; i++ {
			if g := gids[i]; g != noGroup && state[g] == 2 {
				sc.mark(i)
			}
		}
	})
}

// violationPatterns extracts the distinct X-patterns of the rows set in
// sc.bits, for the one CFD c the scratch just checked. Every violating
// row has a group — the filter admits every live pattern's rows — and a
// group is one X-value, so rows are visited ascending and each group
// emits its first violating row, deduplicated on the group ID: a pattern
// tuple is materialized only for emitted patterns, never per violating
// row, and no key is built.
func (sc *detectScratch) violationPatterns(schema *relation.Schema, c *cfd.CFD) (*relation.Relation, error) {
	src := &sc.src
	ps, err := schema.Project("viopi_"+c.Name, c.X)
	if err != nil {
		return nil, err
	}
	out := relation.New(ps)
	i := sc.nextSet(0, src.rows)
	if i < 0 {
		return out, nil
	}
	// The state buffer, spent once the check is done, flags the
	// groups already emitted.
	emitted, _, _ := sc.groupBufs(sc.groups, false)
	for ; i >= 0; i = sc.nextSet(i+1, src.rows) {
		g := sc.gids[i]
		if emitted[g] != 0 {
			continue
		}
		emitted[g] = 1
		pat := make(relation.Tuple, len(sc.xs))
		for j, x := range sc.xs {
			pat[j] = src.r.ColumnDict(x.col).Val(x.ids[i])
		}
		out.MustAppend(pat)
	}
	return out, nil
}
