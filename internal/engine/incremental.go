package engine

import (
	"fmt"

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
type IncrementalState struct {
	units []*unitState
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
func (st *IncrementalState) Insert(t relation.Tuple) {
	for _, u := range st.units {
		u.fold(t, +1)
	}
}

// Delete folds one deleted tuple out of every unit. Deleting a tuple
// that was never inserted corrupts the counts; callers feed the state
// from a consistent delta log.
func (st *IncrementalState) Delete(t relation.Tuple) {
	for _, u := range st.units {
		u.fold(t, -1)
	}
}

func (u *unitState) fold(t relation.Tuple, sign int) {
	for i, p := range u.constPos {
		if t[p] != u.constVal[i] {
			return
		}
	}
	if u.groups != nil {
		k := t.Key(u.xi)
		g := u.groups[k]
		if g == nil {
			if sign < 0 {
				return
			}
			g = &varGroup{x: t.Project(u.xi), perA: make(map[string]int, 2)}
			u.groups[k] = g
		}
		a := t[u.ai]
		g.perA[a] += sign
		if g.perA[a] <= 0 {
			delete(g.perA, a)
			if len(g.perA) == 0 {
				delete(u.groups, k)
			}
		}
		return
	}
	// Constant unit: only tuples with the wrong A value are tracked.
	if t[u.ai] == u.n.TpA {
		return
	}
	k := t.Key(u.xi)
	v := u.viols[k]
	if v == nil {
		if sign < 0 {
			return
		}
		v = &constViol{x: t.Project(u.xi)}
		u.viols[k] = v
	}
	v.n += sign
	if v.n <= 0 {
		delete(u.viols, k)
	}
}

// Patterns appends the current distinct violating X-patterns to dst (a
// relation over c.X), skipping patterns already recorded in seen — the
// same union/dedup contract the one-shot coordinator steps use. dst
// and seen may span several states (blocks).
func (st *IncrementalState) Patterns(dst *relation.Relation, seen map[string]struct{}) {
	all := make([]int, dst.Schema().Arity())
	for i := range all {
		all[i] = i
	}
	add := func(x relation.Tuple) {
		k := x.Key(all)
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		dst.MustAppend(x)
	}
	for _, u := range st.units {
		if u.groups != nil {
			for _, g := range u.groups {
				if len(g.perA) >= 2 {
					add(g.x)
				}
			}
			continue
		}
		for _, v := range u.viols {
			add(v.x)
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
