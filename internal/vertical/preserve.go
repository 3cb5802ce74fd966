// Package vertical implements Section V of the paper: the
// characterization of locally checkable CFDs in vertically partitioned
// relations via dependency preservation (Proposition 7), the minimum
// refinement problem (Theorem 8 — NP-hard; exact and greedy solvers
// here), and — going beyond the paper's deferred report — a
// semijoin-based detection strategy for CFDs that are not locally
// checkable.
package vertical

import (
	"sort"

	"distcfd/internal/cfd"
)

// Preserved reports whether a vertical partition (given as fragment
// attribute sets) is dependency preserving w.r.t. Σ: with
// Γi = {CFDs implied by Σ embedded in fragment i} and Γ = ∪Γi,
// whether Γ ⊨ Σ. By Proposition 7 this holds iff every CFD of Σ is
// locally checkable in every instance.
//
// The test generalizes the classical polynomial FD dependency-
// preservation algorithm (iterating closures restricted to fragments)
// to CFDs: it maintains the canonical violation tableau of each φ ∈ Σ
// and repeatedly imports, for every fragment, all facts about the
// fragment's attributes that Σ forces on the fragment-projection of
// the tableau — precisely the facts some Γi dependency could derive.
// Under the library's infinite-domain assumption the procedure is
// sound and complete; it runs in polynomial time for FDs and for the
// normalized CFD sets used throughout.
func Preserved(sigma []*cfd.Normalized, fragments [][]string) bool {
	for _, phi := range sigma {
		if !PreservedFor(sigma, fragments, phi) {
			return false
		}
	}
	return true
}

// PreservedFor reports whether Γ (the fragment-embedded consequences
// of Σ) implies the single CFD phi.
func PreservedFor(sigma []*cfd.Normalized, fragments [][]string, phi *cfd.Normalized) bool {
	universe := attrUniverse(sigma, phi)
	main := cfd.NewPremiseTableau(sigma, phi)
	n := main.NTuples()

	for changed := true; changed; {
		changed = false
		for _, frag := range fragments {
			inFrag := intersectSorted(frag, universe)
			if len(inFrag) == 0 {
				continue
			}
			// Fragment-restricted chase: seed a fresh tableau with the
			// projection of the main state onto the fragment, chase
			// with the full Σ, then import derived fragment facts.
			sub := cfd.NewTableau(universe, n)
			copyProjection(main, sub, inFrag)
			if sub.Chase(sigma) {
				// The fragment projection of the premise is already
				// unsatisfiable under Σ: φ holds vacuously.
				return true
			}
			if importProjection(sub, main, inFrag) {
				changed = true
			}
			if main.Contradicted() {
				return true
			}
		}
	}
	return main.Concludes(phi)
}

// copyProjection replicates equalities and bindings among the
// fragment's cells from src into dst.
func copyProjection(src, dst *cfd.Tableau, frag []string) {
	n := src.NTuples()
	type cellRef struct {
		t int
		a string
	}
	var cells []cellRef
	for t := 0; t < n; t++ {
		for _, a := range frag {
			cells = append(cells, cellRef{t, a})
		}
	}
	for i, c1 := range cells {
		if v, ok := src.Binding(c1.t, c1.a); ok {
			dst.Bind(c1.t, c1.a, v)
		}
		for _, c2 := range cells[i+1:] {
			if src.SameClass(c1.t, c1.a, c2.t, c2.a) {
				dst.Union(c1.t, c1.a, c2.t, c2.a)
			}
		}
	}
}

// importProjection copies new fragment facts from sub back into main,
// reporting whether anything changed.
func importProjection(sub, main *cfd.Tableau, frag []string) bool {
	n := main.NTuples()
	type cellRef struct {
		t int
		a string
	}
	var cells []cellRef
	for t := 0; t < n; t++ {
		for _, a := range frag {
			cells = append(cells, cellRef{t, a})
		}
	}
	changed := false
	for i, c1 := range cells {
		if v, ok := sub.Binding(c1.t, c1.a); ok {
			if _, had := main.Binding(c1.t, c1.a); !had {
				main.Bind(c1.t, c1.a, v)
				changed = true
			}
		}
		for _, c2 := range cells[i+1:] {
			if sub.SameClass(c1.t, c1.a, c2.t, c2.a) && !main.SameClass(c1.t, c1.a, c2.t, c2.a) {
				main.Union(c1.t, c1.a, c2.t, c2.a)
				changed = true
			}
		}
	}
	return changed
}

func attrUniverse(sigma []*cfd.Normalized, phi *cfd.Normalized) []string {
	set := cfd.NewAttrSet()
	for _, s := range sigma {
		set.Add(s.X...)
		set.Add(s.A)
	}
	if phi != nil {
		set.Add(phi.X...)
		set.Add(phi.A)
	}
	return set.Sorted()
}

func intersectSorted(frag, universe []string) []string {
	u := cfd.NewAttrSet(universe...)
	var out []string
	for _, a := range frag {
		if u.Has(a) {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}
