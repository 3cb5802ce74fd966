package cfd

import "sort"

// Implication for CFDs via a tableau chase.
//
// Σ ⊨ φ iff every instance satisfying Σ satisfies φ. Because CFDs are
// universally quantified, satisfaction is closed under sub-instances,
// so a counterexample can always be shrunk to the witness pair (or the
// single witness tuple, for a constant φ). The chase below therefore
// works on a canonical tableau of one or two tuples whose cells are
// equivalence classes of variables with optional constant bindings.
//
// The procedure is sound unconditionally, and complete under the
// infinite-domain assumption this library makes throughout (every
// attribute draws from an unbounded string domain): if the chase
// fixpoint does not force φ's conclusion, instantiating every unbound
// class with a distinct fresh constant yields a Σ-satisfying
// counterexample. With finite domains CFD implication is coNP-complete
// (Fan et al., TODS 2008) and this test would be incomplete; finite
// domains are out of scope here.

// Implies reports whether the normalized CFDs sigma imply phi.
func Implies(sigma []*Normalized, phi *Normalized) bool {
	tb := NewPremiseTableau(sigma, phi)
	if tb.Chase(sigma) {
		// Contradiction: no tuple configuration matching φ's premise
		// satisfies Σ, so the implication holds vacuously.
		return true
	}
	return tb.Concludes(phi)
}

// Tableau is a chase state over nTuples generic tuples: every
// (tuple, attribute) cell is a variable; cells are merged into
// equivalence classes (equality constraints) and classes may be bound
// to constants. It is exported so the dependency-preservation test of
// internal/vertical can run fragment-restricted chases.
type Tableau struct {
	attrs   []string
	attrIdx map[string]int
	nTuples int
	parent  []int          // union-find over cells
	bound   map[int]string // root -> constant
	contra  bool           // a class was bound to two distinct constants

	// First contradiction, for witness-bearing error messages: the
	// attribute whose class was forced onto two distinct constants,
	// those constants, and the unit whose application derived it.
	contraAttr string
	contraVals [2]string
	contraUnit *Normalized
}

// NewTableau creates a chase state of nTuples tuples over attrs, all
// cells distinct and unbound.
func NewTableau(attrs []string, nTuples int) *Tableau {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	idx := make(map[string]int, len(sorted))
	for i, a := range sorted {
		idx[a] = i
	}
	t := &Tableau{
		attrs:   sorted,
		attrIdx: idx,
		nTuples: nTuples,
		parent:  make([]int, nTuples*len(sorted)),
		bound:   map[int]string{},
	}
	for i := range t.parent {
		t.parent[i] = i
	}
	return t
}

// NewPremiseTableau builds the canonical tableau for testing
// Σ ⊨ φ: one tuple for a constant φ (a single tuple violates it), two
// for a variable φ, agreeing on φ.X and matching φ's LHS pattern. The
// attribute universe is that of sigma ∪ {phi}.
func NewPremiseTableau(sigma []*Normalized, phi *Normalized) *Tableau {
	universe := NewAttrSet()
	add := func(n *Normalized) {
		universe.Add(n.X...)
		universe.Add(n.A)
	}
	for _, s := range sigma {
		add(s)
	}
	add(phi)
	nTuples := 2
	if phi.IsConstant() {
		nTuples = 1
	}
	tb := NewTableau(universe.Sorted(), nTuples)
	for j, a := range phi.X {
		if p := phi.TpX[j]; p != Wildcard {
			for t := 0; t < nTuples; t++ {
				tb.Bind(t, a, p)
			}
		}
		for t := 1; t < nTuples; t++ {
			tb.Union(0, a, t, a)
		}
	}
	return tb
}

// Attrs returns the attribute universe (sorted).
func (c *Tableau) Attrs() []string { return c.attrs }

// NTuples returns the number of tuples.
func (c *Tableau) NTuples() int { return c.nTuples }

// Contradicted reports whether a class was bound to two constants.
func (c *Tableau) Contradicted() bool { return c.contra }

// Contradiction returns the attribute and the two constants of the
// first contradiction derived by the chase. ok is false while the
// state is consistent.
func (c *Tableau) Contradiction() (attr string, vals [2]string, ok bool) {
	return c.contraAttr, c.contraVals, c.contra
}

// ContradictionUnit returns the normalized unit whose application
// derived the first contradiction, or nil when the state is consistent
// or the contradiction came from direct Bind/Union calls.
func (c *Tableau) ContradictionUnit() *Normalized { return c.contraUnit }

// flagContra records the first contradiction; later ones are ignored
// (the chase stops at the first anyway).
func (c *Tableau) flagContra(cell int, v1, v2 string) {
	if c.contra {
		return
	}
	c.contra = true
	c.contraAttr = c.attrs[cell%len(c.attrs)]
	c.contraVals = [2]string{v1, v2}
}

func (c *Tableau) cell(tuple int, attr string) int {
	i, ok := c.attrIdx[attr]
	if !ok {
		panic("cfd: tableau has no attribute " + attr)
	}
	return tuple*len(c.attrs) + i
}

// hasAttrs reports whether every attribute of the unit is in the
// tableau universe; Chase skips units that are not (they cannot fire
// on tuples that do not carry their attributes).
func (c *Tableau) hasAttrs(s *Normalized) bool {
	for _, a := range s.X {
		if _, ok := c.attrIdx[a]; !ok {
			return false
		}
	}
	_, ok := c.attrIdx[s.A]
	return ok
}

func (c *Tableau) find(x int) int {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

func (c *Tableau) union(a, b int) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	va, oka := c.bound[ra]
	vb, okb := c.bound[rb]
	if oka && okb && va != vb {
		c.flagContra(b, va, vb)
	}
	c.parent[rb] = ra
	if okb {
		delete(c.bound, rb)
		if !oka {
			c.bound[ra] = vb
		}
	}
}

// Union merges the classes of (t1,a1) and (t2,a2).
func (c *Tableau) Union(t1 int, a1 string, t2 int, a2 string) {
	c.union(c.cell(t1, a1), c.cell(t2, a2))
}

// Bind constrains the class of (tuple, attr) to the constant v,
// flagging a contradiction when it is already bound differently.
func (c *Tableau) Bind(tuple int, attr, v string) {
	cell := c.cell(tuple, attr)
	r := c.find(cell)
	if old, ok := c.bound[r]; ok {
		if old != v {
			c.flagContra(cell, old, v)
		}
		return
	}
	c.bound[r] = v
}

// Binding returns the constant bound to (tuple, attr), if any.
func (c *Tableau) Binding(tuple int, attr string) (string, bool) {
	v, ok := c.bound[c.find(c.cell(tuple, attr))]
	return v, ok
}

// BoundTo reports whether (tuple, attr) is bound to exactly v.
func (c *Tableau) BoundTo(tuple int, attr, v string) bool {
	got, ok := c.Binding(tuple, attr)
	return ok && got == v
}

// SameClass reports whether two cells are in one equivalence class.
func (c *Tableau) SameClass(t1 int, a1 string, t2 int, a2 string) bool {
	return c.find(c.cell(t1, a1)) == c.find(c.cell(t2, a2))
}

// Matches reports whether (t, attr) satisfies ≍ against pattern entry
// p: wildcard always matches; a constant matches only a cell already
// bound to it (an unbound class can take a different value in the
// infinite domain, so it does not match).
func (c *Tableau) Matches(t int, attr, p string) bool {
	if p == Wildcard {
		return true
	}
	return c.BoundTo(t, attr, p)
}

// Concludes checks φ's conclusion on the current state: for constant φ
// every tuple has A bound to the constant; for variable φ all tuples
// agree on A.
func (c *Tableau) Concludes(phi *Normalized) bool {
	if phi.IsConstant() {
		for t := 0; t < c.nTuples; t++ {
			if !c.BoundTo(t, phi.A, phi.TpA) {
				return false
			}
		}
		return true
	}
	for t := 1; t < c.nTuples; t++ {
		if !c.SameClass(0, phi.A, t, phi.A) {
			return false
		}
	}
	return true
}

// Chase applies sigma to fixpoint:
//
//   - single-tuple rule (constant unit): a tuple matching tp[X] gets
//     t[A] bound to tp[A];
//   - pair rule (variable unit): tuples equal on X and matching tp[X]
//     get their A cells merged.
//
// It returns true when a contradiction was derived (the premise is
// unsatisfiable under Σ). Each step merges classes or binds constants,
// so it terminates.
func (c *Tableau) Chase(sigma []*Normalized) bool {
	for changed := true; changed && !c.contra; {
		changed = false
		for _, s := range sigma {
			if !c.hasAttrs(s) {
				continue
			}
			if s.IsConstant() {
				for t := 0; t < c.nTuples; t++ {
					if c.lhsMatches(t, s) && !c.BoundTo(t, s.A, s.TpA) {
						c.Bind(t, s.A, s.TpA)
						if c.contra && c.contraUnit == nil {
							c.contraUnit = s
						}
						changed = true
					}
				}
				continue
			}
			for t1 := 0; t1 < c.nTuples; t1++ {
				for t2 := t1 + 1; t2 < c.nTuples; t2++ {
					if !c.pairAgreesOnX(t1, t2, s) || !c.lhsMatches(t1, s) {
						continue
					}
					if !c.SameClass(t1, s.A, t2, s.A) {
						c.Union(t1, s.A, t2, s.A)
						if c.contra && c.contraUnit == nil {
							c.contraUnit = s
						}
						changed = true
					}
				}
			}
		}
	}
	return c.contra
}

func (c *Tableau) lhsMatches(t int, s *Normalized) bool {
	for j, a := range s.X {
		if !c.Matches(t, a, s.TpX[j]) {
			return false
		}
	}
	return true
}

func (c *Tableau) pairAgreesOnX(t1, t2 int, s *Normalized) bool {
	for _, a := range s.X {
		if !c.SameClass(t1, a, t2, a) {
			return false
		}
	}
	return true
}

// NormalizeSet flattens a CFD set into normalized form, deduplicated.
func NormalizeSet(cs []*CFD) []*Normalized {
	var out []*Normalized
	seen := map[string]bool{}
	for _, c := range cs {
		for _, n := range c.Normalize() {
			if k := n.Key(); !seen[k] {
				seen[k] = true
				out = append(out, n)
			}
		}
	}
	return out
}
