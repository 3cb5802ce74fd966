package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// The incremental check primitive: IncrementalState keeps, for one CFD
// (X → Y, Tp), the aggregate the one-shot check(D, φ) of detect.go
// recomputes from scratch — the tuples whose X-value matches some
// tableau row, grouped by that X-value, each group a count and, per RHS
// attribute A, the multiset of A-values it holds as value → count. A
// group violates when some row its X-value matches has
//
//   - the wildcard at A, and the group holds two distinct A-values (the
//     HAVING COUNT(DISTINCT A) > 1 of the Qv query), or
//   - a constant a at A, and the group holds a value other than a (the
//     Qc matched set).
//
// Insert and Delete fold one tuple each, and FoldRelation a counted
// row as its count of them, so after any insert/delete sequence the
// state depends only on the current multiset of tuples:
// Patterns() is then equal as a set to re-running ViolationPatterns on
// that multiset, which the property tests and FuzzIncremental pin. A
// constant-only state (the Proposition 5 local serving state) keeps a
// tuple only when it also breaks an RHS constant of a row it matches:
// every group it holds violates, and it needs no value multisets.
//
// Group keys are the length-prefixed X-values (relation.AppendKey),
// built in one reused buffer, so adversarial values cannot merge two
// groups. A string is allocated only when a group is created; the
// group's X-values are slices of it, so a group never holds a shipped
// wire section's string alive.
//
// This is the coordinator-retained "group-by" of the delta-aware
// pipeline (DESIGN.md, incremental detection): each coordinator keeps
// one IncrementalState per (CFD, σ-block) and folds only shipped delta
// blocks into it. The one-shot Kernel.DetectSet/DetectRows paths remain
// as the full-recompute and row-path ablation baselines (ablation 11).
//
// Once TrackChanges is called, a fold marks each group it reaches and
// records whether the group violated before, so Changes reports the
// patterns that flipped in O(groups folded) instead of walking every
// group.
type IncrementalState struct {
	xi, yi []int // X and Y positions in the folded schema
	own    []int // 0 … |X|−1: a group's X-values in X order
	width  int   // the arity a folded tuple needs
	// rows is the tableau; in a constant-only state, its rows with an
	// RHS constant.
	rows         []cfd.PatternTuple
	constantOnly bool
	groups       map[string]*group
	key          []byte // the key buffer

	tracking bool
	touched  []*group // the groups folded since changes were last taken
}

// group is one X-value's share of the state.
type group struct {
	key  string           // its map key; x's values are slices of it
	x    relation.Tuple   // the X-value
	n    int              // tuples held
	vals []map[string]int // per RHS attribute, value → count; nil when constant-only
	// touched marks a group in the touched list; was is whether it
	// violated when it joined it.
	touched, was bool
}

// touchedKeep bounds the touched list's capacity a state keeps across
// Changes: a seed touches every group, and a later round only a few.
const touchedKeep = 1 << 10

// NewIncrementalState builds the empty state of c over the schema the
// folded tuples use (the task projection at a coordinator, or the full
// relation schema at a site). With constantOnly, only violations of c's
// RHS constants are tracked — the Proposition 5 local serving state.
func NewIncrementalState(s *relation.Schema, c *cfd.CFD, constantOnly bool) (*IncrementalState, error) {
	if err := c.Validate(s); err != nil {
		return nil, err
	}
	xi, err := s.Indices(c.X)
	if err != nil {
		return nil, err
	}
	yi, err := s.Indices(c.Y)
	if err != nil {
		return nil, err
	}
	st := &IncrementalState{xi: xi, yi: yi, own: make([]int, len(xi)), constantOnly: constantOnly, groups: map[string]*group{}}
	for j := range st.own {
		st.own[j] = j
	}
	st.width = slices.Max(slices.Concat(xi, yi)) + 1
	for _, p := range c.Tp {
		if !constantOnly || slices.ContainsFunc(p.RHS, func(a string) bool { return a != cfd.Wildcard }) {
			st.rows = append(st.rows, p)
		}
	}
	return st, nil
}

// HasUnits reports whether the state checks anything (false for a
// constant-only state of a purely variable CFD); such a state needs no
// folding at all.
func (st *IncrementalState) HasUnits() bool { return len(st.rows) > 0 }

// Insert folds one inserted tuple into the state.
func (st *IncrementalState) Insert(t relation.Tuple) { st.fold(t, +1) }

// Delete folds one deleted tuple out of the state. Deleting a tuple
// that was never inserted corrupts the counts; callers feed the state
// from a consistent delta log.
func (st *IncrementalState) Delete(t relation.Tuple) { st.fold(t, -1) }

// fold folds t in as w tuples, out as −w when w is negative.
func (st *IncrementalState) fold(t relation.Tuple, w int) {
	if !st.keeps(t) {
		return
	}
	st.key = st.key[:0]
	for _, i := range st.xi {
		st.key = relation.AppendKey(st.key, t[i])
	}
	g := st.groups[string(st.key)]
	if g == nil {
		if w < 0 {
			return
		}
		g = st.newGroup()
	}
	if st.tracking && !g.touched {
		g.touched, g.was = true, st.violates(g)
		st.touched = append(st.touched, g)
	}
	g.n += w
	for j, vals := range g.vals {
		a := t[st.yi[j]]
		switch c, held := vals[a]; {
		case c+w > 0 && held:
			vals[a] = c + w
		case c+w > 0:
			vals[strings.Clone(a)] = w
		default:
			delete(vals, a)
		}
	}
	// A touched group that empties stays until Changes reports it.
	if g.n <= 0 && !g.touched {
		delete(st.groups, g.key)
	}
}

// keeps reports whether t's X-value matches some row — in a
// constant-only state, one whose RHS constants t breaks.
func (st *IncrementalState) keeps(t relation.Tuple) bool {
	for _, p := range st.rows {
		if !matchesAt(t, st.xi, p.LHS) {
			continue
		}
		if !st.constantOnly {
			return true
		}
		for j, a := range p.RHS {
			if a != cfd.Wildcard && t[st.yi[j]] != a {
				return true
			}
		}
	}
	return false
}

// newGroup adds the empty group keyed by the key buffer.
func (st *IncrementalState) newGroup() *group {
	k := string(st.key)
	g := &group{key: k, x: make(relation.Tuple, len(st.xi))}
	for j, off := 0, 0; j < len(g.x); j++ {
		n, w := binary.Uvarint(st.key[off:])
		off += w
		g.x[j] = k[off : off+int(n)]
		off += int(n)
	}
	if !st.constantOnly {
		g.vals = make([]map[string]int, len(st.yi))
		for j := range g.vals {
			g.vals[j] = map[string]int{}
		}
	}
	st.groups[k] = g
	return g
}

// violates reports whether g is a violating X-pattern (Qv or Qc of
// some row its X-value matches).
func (st *IncrementalState) violates(g *group) bool {
	if g.n <= 0 || st.constantOnly {
		return g.n > 0
	}
	for _, p := range st.rows {
		if !matchesAt(g.x, st.own, p.LHS) {
			continue
		}
		for j, a := range p.RHS {
			if d := len(g.vals[j]); d > 1 || d == 1 && a != cfd.Wildcard && g.vals[j][a] == 0 {
				return true
			}
		}
	}
	return false
}

// TrackChanges starts recording, from the current state on, the
// X-patterns whose violating status folds flip (see Changes).
func (st *IncrementalState) TrackChanges() { st.tracking = true }

// Changes appends to added the X-patterns that violate now but did not
// when changes were last taken (or tracking began), and to removed the
// ones that did and no longer do; a pattern that flipped and flipped
// back is in neither. Both relations are over c.X, as for Patterns. It
// costs O(groups folded since) and starts the next interval; without
// TrackChanges it reports nothing.
func (st *IncrementalState) Changes(added, removed *relation.Relation) {
	for _, g := range st.touched {
		switch now := st.violates(g); {
		case now && !g.was:
			added.MustAppend(g.x)
		case !now && g.was:
			removed.MustAppend(g.x)
		}
		g.touched = false
		if g.n <= 0 {
			delete(st.groups, g.key)
		}
	}
	if cap(st.touched) > touchedKeep {
		st.touched = nil
	} else {
		clear(st.touched)
		st.touched = st.touched[:0]
	}
}

// Patterns appends the current violating X-patterns to dst (a relation
// over c.X), each once.
func (st *IncrementalState) Patterns(dst *relation.Relation) {
	for _, g := range st.groups {
		if st.violates(g) {
			dst.MustAppend(g.x)
		}
	}
}

// FoldRelation folds every tuple of r (Insert with insert=true, Delete
// otherwise); a nil relation is a no-op. A counted relation's row i
// folds as counts[i] tuples. r must be wide enough for every X and Y
// position of the schema the state was built over.
func (st *IncrementalState) FoldRelation(r *relation.Relation, insert bool) error {
	if r == nil {
		return nil
	}
	if a := r.Schema().Arity(); a < st.width {
		return fmt.Errorf("engine: folded relation %s has arity %d, the state reads %d positions",
			r.Schema().Name(), a, st.width)
	}
	sign := 1
	if !insert {
		sign = -1
	}
	counts := r.Counts()
	for i, t := range r.Tuples() {
		w := 1
		if counts != nil {
			w = int(counts[i])
		}
		st.fold(t, sign*w)
	}
	return nil
}
