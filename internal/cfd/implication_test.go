package cfd

import (
	"testing"
	"testing/quick"
)

func fd(x []string, a string) *Normalized {
	tpx := make([]string, len(x))
	for i := range tpx {
		tpx[i] = Wildcard
	}
	return &Normalized{X: x, A: a, TpX: tpx, TpA: Wildcard}
}

func constCFD(x []string, tpx []string, a, tpa string) *Normalized {
	return &Normalized{X: x, A: a, TpX: tpx, TpA: tpa}
}

func TestClosure(t *testing.T) {
	fds := []FD{
		{X: []string{"A"}, Y: []string{"B"}},
		{X: []string{"B"}, Y: []string{"C"}},
		{X: []string{"C", "D"}, Y: []string{"E"}},
	}
	cl := Closure([]string{"A"}, fds)
	for _, a := range []string{"A", "B", "C"} {
		if !cl.Has(a) {
			t.Errorf("closure(A) missing %s", a)
		}
	}
	if cl.Has("E") || cl.Has("D") {
		t.Errorf("closure(A) = %v should not reach D or E", cl.Sorted())
	}
	cl2 := Closure([]string{"A", "D"}, fds)
	if !cl2.Has("E") {
		t.Error("closure(AD) should contain E")
	}
}

func TestImpliesFD(t *testing.T) {
	fds := []FD{
		{X: []string{"A"}, Y: []string{"B"}},
		{X: []string{"B"}, Y: []string{"C"}},
	}
	if !ImpliesFD(fds, FD{X: []string{"A"}, Y: []string{"C"}}) {
		t.Error("transitivity failed")
	}
	if ImpliesFD(fds, FD{X: []string{"C"}, Y: []string{"A"}}) {
		t.Error("reverse direction should not be implied")
	}
	// Reflexivity.
	if !ImpliesFD(nil, FD{X: []string{"A", "B"}, Y: []string{"A"}}) {
		t.Error("trivial FD not implied by empty set")
	}
}

func TestImpliesFDTransitivityViaChase(t *testing.T) {
	sigma := []*Normalized{fd([]string{"A"}, "B"), fd([]string{"B"}, "C")}
	if !Implies(sigma, fd([]string{"A"}, "C")) {
		t.Error("chase should derive A→C")
	}
	if Implies(sigma, fd([]string{"C"}, "A")) {
		t.Error("chase must not derive C→A")
	}
	if !Implies(sigma, fd([]string{"A", "C"}, "B")) {
		t.Error("augmented LHS should still be implied")
	}
}

func TestImpliesConstantChain(t *testing.T) {
	// (A=a ⇒ B=b) and (B=b ⇒ C=c) imply (A=a ⇒ C=c).
	sigma := []*Normalized{
		constCFD([]string{"A"}, []string{"a"}, "B", "b"),
		constCFD([]string{"B"}, []string{"b"}, "C", "c"),
	}
	if !Implies(sigma, constCFD([]string{"A"}, []string{"a"}, "C", "c")) {
		t.Error("constant chain not derived")
	}
	if Implies(sigma, constCFD([]string{"A"}, []string{"a"}, "C", "other")) {
		t.Error("wrong constant should not be implied")
	}
	if Implies(sigma, constCFD([]string{"A"}, []string{"x"}, "C", "c")) {
		t.Error("different LHS constant should not trigger the chain")
	}
}

func TestImpliesMixedVariableConstant(t *testing.T) {
	// Variable CFD conditioned on a constant: ([A,B]→C, (a,_‖_)).
	condFD := &Normalized{X: []string{"A", "B"}, A: "C", TpX: []string{"a", "_"}, TpA: Wildcard}
	// It does not imply the unconditional FD [A,B]→C.
	if Implies([]*Normalized{condFD}, fd([]string{"A", "B"}, "C")) {
		t.Error("conditional FD must not imply unconditional FD")
	}
	// The unconditional FD implies the conditional one.
	if !Implies([]*Normalized{fd([]string{"A", "B"}, "C")}, condFD) {
		t.Error("unconditional FD should imply its conditional restriction")
	}
}

func TestImpliesVacuousByContradiction(t *testing.T) {
	// A=a forces both B=b1 and B=b2: no tuple with A=a can exist in a
	// satisfying instance, so anything conditioned on A=a is implied.
	sigma := []*Normalized{
		constCFD([]string{"A"}, []string{"a"}, "B", "b1"),
		constCFD([]string{"A"}, []string{"a"}, "B", "b2"),
	}
	if !Implies(sigma, constCFD([]string{"A"}, []string{"a"}, "C", "anything")) {
		t.Error("contradictory premise should imply vacuously")
	}
	// But patterns not triggering the contradiction are unaffected.
	if Implies(sigma, constCFD([]string{"A"}, []string{"other"}, "C", "c")) {
		t.Error("non-contradictory pattern should not be implied")
	}
}

func TestImpliesReflexive(t *testing.T) {
	phi := constCFD([]string{"A", "B"}, []string{"a", "_"}, "C", "c")
	if !Implies([]*Normalized{phi}, phi) {
		t.Error("a CFD should imply itself")
	}
	v := fd([]string{"A"}, "B")
	if !Implies([]*Normalized{v}, v) {
		t.Error("an FD should imply itself")
	}
}

func TestImpliesEmptySigma(t *testing.T) {
	if Implies(nil, fd([]string{"A"}, "B")) {
		t.Error("empty Σ implies nothing non-trivial")
	}
	// Trivial: A ∈ X. Our normal form forbids A∈X, so the closest
	// trivial case is a constant pattern that restates its own premise —
	// (A=a ⇒ B=b) is not trivial, so nothing to check here beyond the
	// non-implication above.
}

// TestChaseAgreesWithClosureOnFDs is the key cross-validation: on pure
// FDs the chase must coincide with the classical attribute-closure test.
func TestChaseAgreesWithClosureOnFDs(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	// Random FD sets driven by testing/quick.
	f := func(seedsRaw []uint16) bool {
		var fds []FD
		var norm []*Normalized
		for _, s := range seedsRaw {
			lhsMask := int(s) % 31
			rhs := attrs[int(s>>5)%5]
			if lhsMask == 0 {
				continue
			}
			var lhs []string
			for i, a := range attrs {
				if lhsMask&(1<<i) != 0 && a != rhs {
					lhs = append(lhs, a)
				}
			}
			if len(lhs) == 0 {
				continue
			}
			fds = append(fds, FD{X: lhs, Y: []string{rhs}})
			norm = append(norm, fd(lhs, rhs))
		}
		// Check a handful of candidate implications both ways.
		for mask := 1; mask < 32; mask += 7 {
			var lhs []string
			for i, a := range attrs {
				if mask&(1<<i) != 0 {
					lhs = append(lhs, a)
				}
			}
			for _, a := range attrs {
				inLHS := false
				for _, l := range lhs {
					if l == a {
						inLHS = true
						break
					}
				}
				if inLHS {
					continue
				}
				want := ImpliesFD(fds, FD{X: lhs, Y: []string{a}})
				got := Implies(norm, fd(lhs, a))
				if want != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConsistentSet(t *testing.T) {
	consistent := func(sigma []*Normalized) bool { return InconsistencyWitness(sigma) == nil }
	// Conflicting all-wildcard constant rules: every tuple must have
	// B = b1 and B = b2 — unsatisfiable.
	clash := []*Normalized{
		constCFD([]string{"A"}, []string{"_"}, "B", "b1"),
		constCFD([]string{"A"}, []string{"_"}, "B", "b2"),
	}
	if consistent(clash) {
		t.Error("clashing wildcard constants should be inconsistent")
	}
	// The same constants guarded by (different) LHS constants are fine:
	// a tuple avoiding both guards satisfies everything.
	guarded := []*Normalized{
		constCFD([]string{"A"}, []string{"a1"}, "B", "b1"),
		constCFD([]string{"A"}, []string{"a2"}, "B", "b2"),
	}
	if !consistent(guarded) {
		t.Error("guarded constants should be consistent")
	}
	// Transitive wildcard chain into a clash.
	chain := []*Normalized{
		constCFD([]string{"A"}, []string{"_"}, "B", "b"),
		constCFD([]string{"B"}, []string{"b"}, "C", "c1"),
		constCFD([]string{"B"}, []string{"b"}, "C", "c2"),
	}
	if consistent(chain) {
		t.Error("chained clash should be inconsistent")
	}
	// FDs alone are always consistent; empty set trivially so.
	if !consistent([]*Normalized{fd([]string{"A"}, "B")}) || !consistent(nil) {
		t.Error("FDs / empty set must be consistent")
	}
}

func TestNormalizeSet(t *testing.T) {
	ns := NormalizeSet([]*CFD{phi1(), phi3(), phi1()})
	if len(ns) != 4 {
		t.Errorf("NormalizeSet produced %d units, want 4 (2+2, duplicates dropped)", len(ns))
	}
}
