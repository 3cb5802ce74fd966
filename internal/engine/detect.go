// Package engine is a small relational execution engine: hash join and
// semijoin over in-memory relations, plus the fast CFD violation
// detector that plays the role of the SQL-based detection queries of
// Fan et al. [2] — the `check(D, Σ)` step the paper's cost model
// charges at every site.
package engine

import (
	"encoding/binary"
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
// There is one kernel. It runs on the whole dictionary-encoded ID
// columns of a column source (source.go): pattern constants are
// resolved to column IDs once per unit, matching is fixed-width integer
// comparison, the variable group-by keys on dense group IDs through the
// map-free fold of fold.go, and violations accumulate in a row-indexed
// bitset — sorted output falls out of iteration order, with no per-call
// map or sort. The per-row loops can additionally be sharded across an
// intra-unit worker budget; per-shard group states merge associatively,
// so the parallel kernel is byte-identical to the serial one.
// DetectRows (rows.go) keeps the string-key reference path. Semantics
// match internal/cfd.NaiveViolations, which serves as the test oracle.

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
	sc.fold.shrink()
}

// run binds the scratch to r and marks Vio(Σ, r) in the violation
// bitset: every normalized unit of every CFD through the one kernel.
func (sc *detectScratch) run(r relation.ColumnReader, schema *relation.Schema, cs []*cfd.CFD, o Opts) error {
	sc.src.bind(r)
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
// shards the per-row loops; the fold steps of multi-wildcard groupings
// stay serial (interning is order-dependent), and per-shard group
// states merge through the unseen/single/mixed lattice, so the result
// is identical at every worker count.
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
	if err := src.load(xi...); err != nil {
		return err
	}
	if err := src.load(aCol); err != nil {
		return err
	}
	w := src.shards(workers)
	if n.IsConstant() {
		sc.scanConstant(consts, aCol, n.TpA, w)
	} else {
		sc.markMixed(sc.groupRows(consts, varCols, w), aCol, w)
	}
	return nil
}

// scanConstant is the Qc scan: rows matching every constant whose A is
// not the pattern's.
func (sc *detectScratch) scanConstant(consts []constCol, aCol int, tpA string, w int) {
	src := &sc.src
	aID, aOK := src.r.ColumnDict(aCol).Lookup(tpA)
	sc.each(w, func(_ int, sp rowSpan) {
		var stack [4][]uint32
		wins := src.windows(consts, sp, stack[:0])
		for i, a := range src.window(aCol, sp) {
			if matchConsts(consts, wins, i) && (!aOK || a != aID) {
				sc.mark(sp.lo + i)
			}
		}
	})
}

// groupRows fills sc.gids with each row's dense group ID under the
// unit's X pattern (noGroup for rows the constants exclude) and returns
// the group count. Among tuples matching the constants, the constant
// positions are all equal, so grouping by the wildcard positions alone
// partitions exactly like grouping by the full X projection.
func (sc *detectScratch) groupRows(consts []constCol, varCols []int, w int) int {
	src := &sc.src
	sc.gids = sized(sc.gids, src.rows)
	gids := sc.gids
	sc.each(w, func(_ int, sp rowSpan) {
		g := gids[sp.lo:sp.hi]
		if len(consts) == 0 {
			// The first variable column IS the initial grouping: a
			// constant-free LHS does no per-row work here beyond the copy.
			copy(g, src.window(varCols[0], sp))
			return
		}
		var stack [4][]uint32
		wins := src.windows(consts, sp, stack[:0])
		// An all-constant LHS is one group, 0.
		first := g
		if len(varCols) == 0 {
			clear(g)
		} else {
			first = src.window(varCols[0], sp)
		}
		for i := range g {
			if matchConsts(consts, wins, i) {
				g[i] = first[i]
			} else {
				g[i] = noGroup
			}
		}
	})
	if len(varCols) == 0 {
		return 1
	}
	// Fold the remaining variable columns in, a whole column at a time.
	all := rowSpan{0, src.rows}
	num := src.r.ColumnDict(varCols[0]).Len()
	for _, col := range varCols[1:] {
		num = foldColumn(gids, src.window(col, all), num, src.r.ColumnDict(col).Len(), &sc.fold)
	}
	return num
}

// markMixed is the HAVING COUNT(DISTINCT A) > 1 half of Qv: it walks
// the num groups of sc.gids through the unseen/single/mixed state
// machine on column aCol and marks every row of a mixed group.
func (sc *detectScratch) markMixed(num, aCol, w int) {
	src := &sc.src
	gids := sc.gids[:src.rows]
	state, firstA := sc.groupBufs(num)
	// Shard 0 accumulates into the merge target directly; extra shards
	// into their own slices of the flat buffers.
	shardState, shardFirst := sc.shardBufs(w-1, num)
	sc.each(w, func(s int, sp rowSpan) {
		st, fa := state, firstA
		if s > 0 {
			st = shardState[(s-1)*num : s*num]
			fa = shardFirst[(s-1)*num : s*num]
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
		// shard order cannot matter. Sharded over the group space.
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
					case st[g] == 2 || fa[g] != firstA[g]:
						state[g] = 2
					}
				}
			}
		})
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
// sc.bits, decoding X's columns only when some row is set. The seen-set
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
	i := sc.nextSet(0, src.rows)
	if i < 0 {
		return out, nil
	}
	if err := src.load(xi...); err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, 16)
	key := make([]byte, 0, 8*len(xi))
	cols := make([][]uint32, len(xi))
	dicts := make([]*relation.Dict, len(xi))
	for j, col := range xi {
		cols[j] = src.window(col, rowSpan{0, src.rows})
		dicts[j] = src.r.ColumnDict(col)
	}
	for ; i >= 0; i = sc.nextSet(i+1, src.rows) {
		key = key[:0]
		for _, col := range cols {
			key = binary.AppendUvarint(key, uint64(col[i]))
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		pat := make(relation.Tuple, len(xi))
		for j, col := range cols {
			pat[j] = dicts[j].Val(col[i])
		}
		out.MustAppend(pat)
	}
	return out, nil
}
