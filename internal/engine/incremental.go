package engine

import (
	"fmt"
	"strings"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// The incremental check primitive: IncrementalState maintains, per
// normalized unit of one CFD, exactly the aggregate the one-shot
// check(D, φ) recomputes from scratch —
//
//   - variable unit (X → A, (tpX ‖ _)): for each X-group among the
//     tuples matching tpX, the multiset of A values as value → count; a
//     group violates iff it holds ≥ 2 distinct A values (the HAVING
//     COUNT(DISTINCT A) > 1 of the Qv query);
//   - constant unit (X → A, (tpX ‖ a)): for each X-pattern, the count
//     of matching tuples with t[A] ≠ a (the Qc matched set).
//
// folded tuple by tuple from a delta: Insert increments, Delete
// decrements and drops empty entries, so after any insert/delete
// sequence the state depends only on the current multiset of tuples —
// Patterns() is then byte-equal (as a set) to re-running
// ViolationPatterns on that multiset, which the property tests pin.
// Group keys are value-exact (length-prefixed, never separator-joined),
// so adversarial values cannot merge two groups.
//
// This is the coordinator-retained "group-by" of the delta-aware
// pipeline (DESIGN.md, incremental detection): each coordinator keeps
// one IncrementalState per (CFD, σ-block) and folds only shipped delta
// blocks into it. The one-shot Kernel.DetectSet/DetectRows paths remain
// as the full-recompute and row-path ablation baselines (ablation 11).
//
// Once TrackChanges is called, the state also remembers each X-pattern
// a fold reaches and whether it violated before, so Changes reports the
// patterns that flipped in O(patterns folded) instead of walking every
// group.
type IncrementalState struct {
	units []*unitState
	// touched maps the X-key of every pattern folded since changes were
	// last taken to that pattern; nil while changes are not tracked.
	touched map[string]touchedPattern
}

type touchedPattern struct {
	x   relation.Tuple
	was bool // violated before the first fold that reached it
}

type unitState struct {
	n  *cfd.Normalized
	xi []int // X positions in the folded schema
	ai int   // A position
	// constPos/constVal are the resolved constant positions of TpX.
	constPos []int
	constVal []string
	wildPos  []int // wildcard positions of TpX (within xi)

	// Variable unit: X-key → group.
	groups map[string]*varGroup
	// Constant unit: X-key → violating matched-tuple count.
	viols map[string]*constViol
}

type varGroup struct {
	x    relation.Tuple // the group's X projection (shared key values)
	perA map[string]int // distinct A value → multiplicity
}

type constViol struct {
	x relation.Tuple
	n int
}

// NewIncrementalState builds the empty state of c over the schema the
// folded tuples use (the task projection at a coordinator, or the full
// relation schema at a site). With constantOnly, only c's constant
// units are tracked — the Proposition 5 local serving state.
func NewIncrementalState(s *relation.Schema, c *cfd.CFD, constantOnly bool) (*IncrementalState, error) {
	if err := c.Validate(s); err != nil {
		return nil, err
	}
	st := &IncrementalState{}
	for _, n := range c.Normalize() {
		if constantOnly && !n.IsConstant() {
			continue
		}
		xi, err := s.Indices(n.X)
		if err != nil {
			return nil, err
		}
		aIdx, err := s.Indices([]string{n.A})
		if err != nil {
			return nil, err
		}
		u := &unitState{n: n, xi: xi, ai: aIdx[0]}
		for j, p := range n.TpX {
			if p == cfd.Wildcard {
				u.wildPos = append(u.wildPos, xi[j])
			} else {
				u.constPos = append(u.constPos, xi[j])
				u.constVal = append(u.constVal, p)
			}
		}
		if n.IsVariable() {
			u.groups = make(map[string]*varGroup)
		} else {
			u.viols = make(map[string]*constViol)
		}
		st.units = append(st.units, u)
	}
	return st, nil
}

// HasUnits reports whether any unit is tracked (false e.g. for a
// constant-only state of a purely variable CFD); unit-less states need
// no folding at all.
func (st *IncrementalState) HasUnits() bool { return len(st.units) > 0 }

// Insert folds one inserted tuple into every unit.
func (st *IncrementalState) Insert(t relation.Tuple) { st.fold(t, +1) }

// Delete folds one deleted tuple out of every unit. Deleting a tuple
// that was never inserted corrupts the counts; callers feed the state
// from a consistent delta log.
func (st *IncrementalState) Delete(t relation.Tuple) { st.fold(t, -1) }

// fold folds t into every unit it reaches. Every unit keys its groups
// by the CFD's X, so the key is built once, at the first such unit —
// which is also where a tracking state records whether the pattern
// violated before this fold.
func (st *IncrementalState) fold(t relation.Tuple, sign int) {
	var k string
	keyed := false
	for _, u := range st.units {
		if !u.reaches(t) {
			continue
		}
		if !keyed {
			k, keyed = t.Key(u.xi), true
			if _, seen := st.touched[k]; st.touched != nil && !seen {
				st.touched[k] = touchedPattern{x: t.Project(u.xi), was: st.violates(k)}
			}
		}
		u.fold(t, k, sign)
	}
}

// violates reports whether the X-pattern keyed k violates any unit.
func (st *IncrementalState) violates(k string) bool {
	for _, u := range st.units {
		if g := u.groups[k]; g != nil && len(g.perA) >= 2 || u.viols[k] != nil {
			return true
		}
	}
	return false
}

// TrackChanges starts recording, from the current state on, the
// X-patterns whose violating status folds flip (see Changes).
func (st *IncrementalState) TrackChanges() { st.touched = map[string]touchedPattern{} }

// Changes appends to added the X-patterns that violate now but did not
// when changes were last taken (or tracking began), and to removed the
// ones that did and no longer do; a pattern that flipped and flipped
// back is in neither. Both relations are over c.X, as for Patterns. It
// costs O(patterns folded since) and starts the next interval; without
// TrackChanges it reports nothing.
func (st *IncrementalState) Changes(added, removed *relation.Relation) {
	for k, p := range st.touched {
		switch now := st.violates(k); {
		case now && !p.was:
			added.MustAppend(p.x)
		case !now && p.was:
			removed.MustAppend(p.x)
		}
	}
	clear(st.touched)
}

// reaches reports whether folding t changes the unit: t carries the
// unit's LHS constants and, for a constant unit, a wrong A value — only
// those tuples are tracked there.
func (u *unitState) reaches(t relation.Tuple) bool {
	for i, p := range u.constPos {
		if t[p] != u.constVal[i] {
			return false
		}
	}
	return u.groups != nil || t[u.ai] != u.n.TpA
}

func (u *unitState) fold(t relation.Tuple, k string, sign int) {
	if u.groups != nil {
		g := u.groups[k]
		if g == nil {
			if sign < 0 {
				return
			}
			g = &varGroup{x: keep(t, u.xi), perA: make(map[string]int, 2)}
			u.groups[strings.Clone(k)] = g
		}
		a := t[u.ai]
		n, held := g.perA[a]
		if n += sign; n > 0 {
			if !held {
				a = strings.Clone(a)
			}
			g.perA[a] = n
			return
		}
		delete(g.perA, a)
		if len(g.perA) == 0 {
			delete(u.groups, k)
		}
		return
	}
	v := u.viols[k]
	if v == nil {
		if sign < 0 {
			return
		}
		v = &constViol{x: keep(t, u.xi)}
		u.viols[strings.Clone(k)] = v
	}
	v.n += sign
	if v.n <= 0 {
		delete(u.viols, k)
	}
}

// keep returns t's projection on idx with every value cloned, for a
// group the state keeps: t's values may share one wire section's string
// (colstore.DecodeDictSection), which a kept value would hold alive. A
// group's key is cloned for the same reason (Key of one value is the
// value).
func keep(t relation.Tuple, idx []int) relation.Tuple {
	x := t.Project(idx)
	for i, v := range x {
		x[i] = strings.Clone(v)
	}
	return x
}

// Patterns appends the current violating X-patterns to dst (a relation
// over c.X), each once however many units it violates.
func (st *IncrementalState) Patterns(dst *relation.Relation) {
	seen := map[string]bool{}
	add := func(k string, x relation.Tuple) {
		if !seen[k] {
			seen[k] = true
			dst.MustAppend(x)
		}
	}
	for _, u := range st.units {
		for k, g := range u.groups {
			if len(g.perA) >= 2 {
				add(k, g.x)
			}
		}
		for k, v := range u.viols {
			add(k, v.x)
		}
	}
}

// FoldRelation folds every tuple of r (Insert with insert=true, Delete
// otherwise); a nil relation is a no-op. Arity must match the schema
// the state was built over.
func (st *IncrementalState) FoldRelation(r *relation.Relation, insert bool) error {
	if r == nil {
		return nil
	}
	for _, u := range st.units {
		for _, xi := range u.xi {
			if xi >= r.Schema().Arity() {
				return fmt.Errorf("engine: folded relation arity %d too small for unit over %v",
					r.Schema().Arity(), u.n.X)
			}
		}
	}
	for _, t := range r.Tuples() {
		if insert {
			st.Insert(t)
		} else {
			st.Delete(t)
		}
	}
	return nil
}
