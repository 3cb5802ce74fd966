// Package engine is a small relational execution engine: hash join and
// semijoin over in-memory relations, plus the fast CFD violation
// detector that plays the role of the SQL-based detection queries of
// Fan et al. [2] — the `check(D, Σ)` step the paper's cost model
// charges at every site.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// The fast detector — the paper's check(D, Σ). For each normalized unit
// (X→A, tp):
//
//   - constant unit: one scan; t violates iff t[X] ≍ tp[X] ∧ t[A]≠tp[A]
//     (the Qc query of [2]);
//   - variable unit: hash-group the tuples matching tp[X] by X; every
//     tuple of a group with >1 distinct A-value violates (the Qv
//     GROUP BY … HAVING COUNT(DISTINCT A)>1 query of [2]).
//
// There is one kernel. It runs on dictionary-encoded column IDs handed
// out span by span by a column source (source.go): pattern constants
// are resolved to column IDs once per unit, matching is fixed-width
// integer comparison, the variable group-by keys on dense group IDs
// through the map-free fold of fold.go, and violations accumulate in a
// row-indexed bitset — sorted output falls out of iteration order, with
// no per-call map or sort. Over a materialized relation the per-row
// loops can additionally be sharded across an intra-unit worker budget;
// per-shard group states merge associatively, so the parallel kernel is
// byte-identical to the serial one. DetectRows (rows.go) keeps the
// string-key reference path. Semantics match
// internal/cfd.NaiveViolations, which serves as the test oracle.

// noGroup marks rows excluded from a variable unit's grouping (pattern
// mismatch). Group IDs are dense, bounded by the row count, so the
// sentinel can never collide.
const noGroup = math.MaxUint32

// scratchShrinkRows bounds the per-row buffers (gids, state, first,
// bits, shard states) a pooled scratch may retain: past it the buffers
// are dropped wholesale when the scratch returns to its pool, so one
// huge unit cannot permanently inflate a long-lived compiled plan's
// scratch (the same wholesale reset the sites' serving caches use).
const scratchShrinkRows = 1 << 21

// detectScratch carries the column source and the reusable buffers of
// one detection call so consecutive units (and CFDs) do not reallocate
// them. Scratches are pooled per Kernel and reused across calls.
type detectScratch struct {
	src source

	gids  []uint32 // per-row group id, noGroup when unmatched
	state []uint8  // per-group: 0 unseen, 1 single A, 2 mixed
	first []uint32 // per-group first A id (valid when state≥1)
	fold  foldStage

	// Violation bitset: bit i set ⇔ row i violates. Shared across the
	// units (and CFDs) of one call; ascending iteration replaces the
	// old map[int]struct{} + sort.Ints.
	bits []uint64

	// Flat per-extra-shard group states of the intra-unit parallel
	// path: shard s ∈ [1, workers) uses rows [(s-1)·num, s·num).
	shardState []uint8
	shardFirst []uint32
	shardErrs  []error

	// Decode buffers of a streaming source: one flat backing array
	// sliced into per-column span windows.
	readFlat  []uint32
	readBufsV [][]uint32
}

// sized returns buf with length n, reallocating when its capacity falls
// short; what it holds is unspecified until the caller clears or fills it.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// groupBufs returns the per-group state (cleared) and first-A buffers.
func (sc *detectScratch) groupBufs(num int) (state []uint8, first []uint32) {
	sc.state, sc.first = sized(sc.state, num), sized(sc.first, num)
	clear(sc.state)
	return sc.state, sc.first
}

// shardBufs returns cleared flat state/first buffers for extra shards.
func (sc *detectScratch) shardBufs(extra, num int) ([]uint8, []uint32) {
	sc.shardState, sc.shardFirst = sized(sc.shardState, extra*num), sized(sc.shardFirst, extra*num)
	clear(sc.shardState)
	return sc.shardState, sc.shardFirst
}

// readBufs returns n decode buffers of rows capacity each, reusing the
// scratch's flat backing array. A materialized source asks for rows = 0:
// its windows are the columns themselves.
func (sc *detectScratch) readBufs(n, rows int) [][]uint32 {
	sc.readFlat = sized(sc.readFlat, n*rows)
	sc.readBufsV = sized(sc.readBufsV, n)
	for i := range sc.readBufsV {
		sc.readBufsV[i] = sc.readFlat[i*rows : (i+1)*rows]
	}
	return sc.readBufsV
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

// shrink drops buffers grown past the retention bounds; called when
// the scratch returns to its pool. Each buffer is gated on its own
// capacity: the group buffers can exceed the row count (a sparse
// shared dictionary bounds groups, not rows) and the shard buffers
// are (workers−1)× the group space, so gating everything on gids
// would retain them far past the intended bound.
func (sc *detectScratch) shrink() {
	if cap(sc.gids) > scratchShrinkRows {
		sc.gids = nil
	}
	if cap(sc.state) > scratchShrinkRows {
		sc.state = nil
		sc.first = nil
	}
	if cap(sc.bits) > scratchShrinkRows>>6 {
		sc.bits = nil
	}
	if cap(sc.shardState) > scratchShrinkRows {
		sc.shardState = nil
		sc.shardFirst = nil
	}
	if cap(sc.readFlat) > scratchShrinkRows {
		sc.readFlat = nil
		sc.readBufsV = nil
	}
	if cap(sc.src.spans) > scratchShrinkRows>>6 {
		sc.src.spans = nil
	}
	sc.fold.shrink()
}

// run binds the scratch to r and marks Vio(Σ, r) in the violation
// bitset: every normalized unit of every CFD through the one kernel.
func (sc *detectScratch) run(r relation.ColumnReader, schema *relation.Schema, cs []*cfd.CFD, o Opts) error {
	if err := sc.src.bind(r); err != nil {
		return err
	}
	sc.resetBits(sc.src.rows)
	for _, c := range cs {
		if err := c.Validate(schema); err != nil {
			return err
		}
		for _, n := range c.Normalize() {
			if err := sc.detectUnit(schema, n, o.Workers); err != nil {
				return err
			}
		}
	}
	return nil
}

// each runs fn over the bound source: span by span on the calling
// goroutine when w ≤ 1, and — only ever for a materialized source,
// whose single span is cut into row shards — through fan otherwise.
func (sc *detectScratch) each(w int, fn func(shard int, sp rowSpan) error) error {
	if w > 1 {
		return sc.fan(w, sc.src.rows, fn)
	}
	for _, sp := range sc.src.spans {
		if err := fn(0, sp); err != nil {
			return err
		}
	}
	return nil
}

// fan cuts [0, n) into w contiguous shards whose boundaries are
// multiples of 64 — two shards never share a word of the violation
// bitset — and runs fn on each concurrently; shard tells fn which
// per-shard state is its own.
func (sc *detectScratch) fan(w, n int, fn func(shard int, sp rowSpan) error) error {
	sc.shardErrs = sized(sc.shardErrs, w)
	errs := sc.shardErrs
	per := ((n+w-1)/w + 63) &^ 63 // w·per ≥ n: the last shard ends at n
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		sp := rowSpan{lo: min(s*per, n), hi: min((s+1)*per, n), chunk: -1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = fn(s, sp)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// constCol is one resolved constant of a pattern: the column and the ID
// the pattern's constant interned to.
type constCol struct {
	col int
	id  uint32
}

func matchConsts(consts []constCol, wins [][]uint32, i int) bool {
	for ci, c := range consts {
		if wins[ci][i] != c.id {
			return false
		}
	}
	return true
}

// detectUnit checks one normalized unit of a CFD against the bound
// source, marking violating rows in the scratch bitset. workers > 1
// shards the per-row loops of a materialized source; the fold steps of
// multi-wildcard groupings stay serial (interning is order-dependent),
// and per-shard group states merge through the unseen/single/mixed
// lattice, so the result is identical at every worker count.
func (sc *detectScratch) detectUnit(schema *relation.Schema, n *cfd.Normalized, workers int) error {
	src := &sc.src
	xi, err := schema.Indices(n.X)
	if err != nil {
		return err
	}
	aCol, ok := schema.Index(n.A)
	if !ok {
		return fmt.Errorf("engine: schema %q has no attribute %q", schema.Name(), n.A)
	}
	if src.rows == 0 {
		return nil
	}

	// Resolve the pattern's constants against each column's dictionary;
	// a constant the fragment never interned matches no tuple at all.
	var consts []constCol
	var varCols []int
	for j, p := range n.TpX {
		if p == cfd.Wildcard {
			varCols = append(varCols, xi[j])
			continue
		}
		id, ok := src.r.ColumnDict(xi[j]).Lookup(p)
		if !ok {
			return nil
		}
		consts = append(consts, constCol{col: xi[j], id: id})
	}
	w := src.shards(workers)
	if n.IsConstant() {
		return sc.scanConstant(consts, aCol, n.TpA, w)
	}
	num, err := sc.groupRows(consts, varCols, w)
	if err != nil {
		return err
	}
	return sc.markMixed(num, aCol, w)
}

// scanConstant is the Qc scan: rows matching every constant whose A is
// not the pattern's. Spans that cannot hold a match are skipped before
// (or part-way through) decoding — see constWindows.
func (sc *detectScratch) scanConstant(consts []constCol, aCol int, tpA string, w int) error {
	src := &sc.src
	aID, aOK := src.r.ColumnDict(aCol).Lookup(tpA)
	bufs := sc.readBufs(len(consts)+1, src.spanMax)
	return sc.each(w, func(_ int, sp rowSpan) error {
		var stack [4][]uint32
		wins, ok, err := src.constWindows(consts, sp, bufs, stack[:0])
		if err != nil || !ok {
			return err
		}
		acol, err := src.window(aCol, sp, bufs[len(consts)])
		if err != nil {
			return err
		}
		for i, a := range acol {
			if matchConsts(consts, wins, i) && (!aOK || a != aID) {
				sc.mark(sp.lo + i)
			}
		}
		return nil
	})
}

// groupRows fills sc.gids with each row's dense group ID under the
// unit's X pattern (noGroup for rows the constants exclude) and returns
// the group count. Among tuples matching the constants, the constant
// positions are all equal, so grouping by the wildcard positions alone
// partitions exactly like grouping by the full X projection.
func (sc *detectScratch) groupRows(consts []constCol, varCols []int, w int) (int, error) {
	src := &sc.src
	sc.gids = sized(sc.gids, src.rows)
	gids := sc.gids
	bufs := sc.readBufs(len(consts)+1, src.spanMax)
	err := sc.each(w, func(_ int, sp rowSpan) error {
		g := gids[sp.lo:sp.hi]
		if len(consts) == 0 {
			// The first variable column IS the initial grouping, read
			// straight into the group-ID vector: a constant-free LHS
			// does no per-row work here at all.
			return src.r.ReadColumn(varCols[0], sp.lo, g)
		}
		var stack [4][]uint32
		wins, ok, err := src.constWindows(consts, sp, bufs, stack[:0])
		if err != nil {
			return err
		}
		if !ok {
			for i := range g {
				g[i] = noGroup // no row of sp can match
			}
			return nil
		}
		// A streaming source decodes the first variable column into g
		// itself, so g[i] = first[i] below leaves a matching row's ID
		// where it already is; an all-constant LHS is one group, 0.
		first := g
		if len(varCols) == 0 {
			clear(g)
		} else if first, err = src.window(varCols[0], sp, g); err != nil {
			return err
		}
		for i := range g {
			if matchConsts(consts, wins, i) {
				g[i] = first[i]
			} else {
				g[i] = noGroup
			}
		}
		return nil
	})
	if err != nil || len(varCols) == 0 {
		return 1, err
	}
	// Fold the remaining variable columns in, streaming: the interning
	// counter persists across feeds, so a chunked source interns the
	// same composites to the same dense IDs as one whole-column pass.
	num := src.r.ColumnDict(varCols[0]).Len()
	for _, col := range varCols[1:] {
		sc.fold.begin(num, src.r.ColumnDict(col).Len(), src.rows)
		for _, sp := range src.spans {
			win, err := src.window(col, sp, bufs[0])
			if err != nil {
				return 0, err
			}
			sc.fold.feed(gids[sp.lo:sp.hi], win)
		}
		num = sc.fold.count()
	}
	return num, nil
}

// markMixed is the HAVING COUNT(DISTINCT A) > 1 half of Qv: it walks
// the num groups of sc.gids through the unseen/single/mixed state
// machine on column aCol and marks every row of a mixed group.
func (sc *detectScratch) markMixed(num, aCol, w int) error {
	src := &sc.src
	gids := sc.gids[:src.rows]
	state, firstA := sc.groupBufs(num)
	// Shard 0 accumulates into the merge target directly; extra shards
	// into their own slices of the flat buffers.
	shardState, shardFirst := sc.shardBufs(w-1, num)
	bufs := sc.readBufs(1, src.spanMax)
	// A streamed column arrives run-length decoded, so repeats of one
	// (group, A) update are common enough to be worth remembering; over
	// materialized columns the memo only costs.
	runs := src.enc == nil
	err := sc.each(w, func(s int, sp rowSpan) error {
		st, fa := state, firstA
		if s > 0 {
			st = shardState[(s-1)*num : s*num]
			fa = shardFirst[(s-1)*num : s*num]
		}
		acol, err := src.window(aCol, sp, bufs[0])
		if err != nil {
			return err
		}
		lastG, lastV := uint32(noGroup), uint32(0)
		for i, g := range gids[sp.lo:sp.hi] {
			if g == noGroup {
				continue
			}
			v := acol[i]
			if g == lastG && v == lastV {
				// The state machine is idempotent under repeats, so a
				// run costs one transition.
				continue
			}
			if runs {
				lastG, lastV = g, v
			}
			switch st[g] {
			case 0:
				st[g] = 1
				fa[g] = v
			case 1:
				if v != fa[g] {
					st[g] = 2
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if w > 1 {
		// Merge: unseen/single/mixed is a join-semilattice (unseen ⊑
		// single(a) ⊑ mixed, single(a) ⊔ single(b≠a) = mixed), so
		// shard order cannot matter. Sharded over the group space.
		err := sc.fan(w, num, func(_ int, groups rowSpan) error {
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
					case st[g] == 2 || fa[g] != firstA[g]:
						state[g] = 2
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return sc.each(w, func(_ int, sp rowSpan) error {
		for i := sp.lo; i < sp.hi; i++ {
			if g := gids[i]; g != noGroup && state[g] == 2 {
				sc.mark(i)
			}
		}
		return nil
	})
}

// violationPatterns extracts the distinct X-patterns of the rows set in
// sc.bits, decoding only the spans that hold set bits. The seen-set
// keys on the rows' encoded column IDs (uvarint-encoded per component,
// so the fixed component count makes the key unambiguous) — value-exact,
// since rows of one source share its dictionaries — rows are visited
// ascending, and a pattern tuple is materialized only for emitted
// patterns, never per violating row.
func (sc *detectScratch) violationPatterns(schema *relation.Schema, c *cfd.CFD) (*relation.Relation, error) {
	src := &sc.src
	xi, err := schema.Indices(c.X)
	if err != nil {
		return nil, err
	}
	ps, err := schema.Project("viopi_"+c.Name, c.X)
	if err != nil {
		return nil, err
	}
	out := relation.New(ps)
	var (
		seen  map[string]struct{}
		key   []byte
		bufs  [][]uint32
		wins  [][]uint32
		dicts []*relation.Dict
	)
	for _, sp := range src.spans {
		i := sc.nextSet(sp.lo, sp.hi)
		if i < 0 {
			continue
		}
		if seen == nil {
			seen = make(map[string]struct{}, 16)
			key = make([]byte, 0, 8*len(xi))
			bufs = sc.readBufs(len(xi), src.spanMax)
			wins = make([][]uint32, len(xi))
			dicts = make([]*relation.Dict, len(xi))
			for j, col := range xi {
				dicts[j] = src.r.ColumnDict(col)
			}
		}
		for j, col := range xi {
			if wins[j], err = src.window(col, sp, bufs[j]); err != nil {
				return nil, err
			}
		}
		for ; i >= 0; i = sc.nextSet(i+1, sp.hi) {
			key = key[:0]
			for _, win := range wins {
				key = binary.AppendUvarint(key, uint64(win[i-sp.lo]))
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			pat := make(relation.Tuple, len(xi))
			for j, win := range wins {
				pat[j] = dicts[j].Val(win[i-sp.lo])
			}
			out.MustAppend(pat)
		}
	}
	return out, nil
}
