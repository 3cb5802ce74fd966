package cfd

import (
	"strings"
	"testing"
)

func wildcardRow(n int) []string {
	row := make([]string, n)
	for i := range row {
		row[i] = Wildcard
	}
	return row
}

func TestAnalyzeSigmaWitness(t *testing.T) {
	clash := []*CFD{
		MustNew("phi1", []string{"A"}, []string{"B"},
			[]PatternTuple{{LHS: []string{Wildcard}, RHS: []string{"b1"}}}),
		MustNew("phi2", []string{"A"}, []string{"B"},
			[]PatternTuple{{LHS: []string{Wildcard}, RHS: []string{"b2"}}}),
	}
	r := AnalyzeSigma(clash)
	if r.Consistent() || r.Witness == nil {
		t.Fatal("clashing wildcard constants must yield a witness")
	}
	w := r.Witness
	if w.Attr != "B" {
		t.Errorf("witness attr = %q, want B", w.Attr)
	}
	vals := map[string]bool{w.Values[0]: true, w.Values[1]: true}
	if !vals["b1"] || !vals["b2"] {
		t.Errorf("witness values = %v, want {b1, b2}", w.Values)
	}
	if w.Trigger == nil {
		t.Error("witness should name the unit that derived the contradiction")
	}
	if w.Tableau == nil || !w.Tableau.Contradicted() {
		t.Error("witness should carry the contradicted chase state")
	}
	if s := w.String(); !strings.Contains(s, `"B"`) || !strings.Contains(s, "b1") {
		t.Errorf("witness rendering %q lacks the attribute or values", s)
	}
	// Implication analysis is skipped on an inconsistent Σ.
	if r.Implied != nil || r.Cover != nil {
		t.Error("implication analysis must be skipped when inconsistent")
	}
	if !strings.Contains(r.String(), "INCONSISTENT") {
		t.Errorf("report rendering: %q", r.String())
	}
}

func TestAnalyzeSigmaImpliedAndCover(t *testing.T) {
	// phi2 ([A,C] -> B as an FD) is implied by phi1 (A -> B).
	phi1 := MustNew("phi1", []string{"A"}, []string{"B"},
		[]PatternTuple{{LHS: wildcardRow(1), RHS: wildcardRow(1)}})
	phi2 := MustNew("phi2", []string{"A", "C"}, []string{"B"},
		[]PatternTuple{{LHS: wildcardRow(2), RHS: wildcardRow(1)}})
	r := AnalyzeSigma([]*CFD{phi1, phi2})
	if !r.Consistent() {
		t.Fatalf("unexpected witness: %v", r.Witness)
	}
	if len(r.Units) != 2 {
		t.Fatalf("got %d units, want 2", len(r.Units))
	}
	implied := map[string]bool{}
	for _, i := range r.Implied {
		implied[r.Units[i].Parent] = true
	}
	if !implied["phi2"] || implied["phi1"] {
		t.Errorf("implied = %v, want exactly phi2's unit", r.Implied)
	}
	cover := map[string]bool{}
	for _, i := range r.Cover {
		cover[r.Units[i].Parent] = true
	}
	if !cover["phi1"] || cover["phi2"] {
		t.Errorf("cover = %v, want exactly phi1's unit", r.Cover)
	}
	// The cover must still imply every unit.
	var cs []*Normalized
	for _, i := range r.Cover {
		cs = append(cs, r.Units[i])
	}
	for _, u := range r.Units {
		if !Implies(cs, u) {
			t.Errorf("cover does not imply unit %v", u)
		}
	}
	if !strings.Contains(r.String(), "irreducible cover: 1 of 2") {
		t.Errorf("report rendering: %q", r.String())
	}
}

func TestAnalyzeSigmaDuplicates(t *testing.T) {
	mk := func(name, c string) *CFD {
		return MustNew(name, []string{"A"}, []string{"B"},
			[]PatternTuple{{LHS: []string{"a"}, RHS: []string{c}}})
	}
	cs := []*CFD{mk("r0", "b"), mk("r1", "other"), mk("r2", "b"), mk("r3", "b")}
	r := AnalyzeSigma(cs)
	if len(r.Duplicates) != 1 {
		t.Fatalf("duplicate groups = %v, want one group", r.Duplicates)
	}
	g := r.Duplicates[0]
	if len(g) != 3 || g[0] != 0 || g[1] != 2 || g[2] != 3 {
		t.Errorf("group = %v, want [0 2 3]", g)
	}
	// Row order is identity: permuted tableaux are not duplicates.
	p1 := MustNew("p1", []string{"A"}, []string{"B"}, []PatternTuple{
		{LHS: []string{"a1"}, RHS: []string{"b1"}},
		{LHS: []string{"a2"}, RHS: []string{"b2"}},
	})
	p2 := MustNew("p2", []string{"A"}, []string{"B"}, []PatternTuple{
		{LHS: []string{"a2"}, RHS: []string{"b2"}},
		{LHS: []string{"a1"}, RHS: []string{"b1"}},
	})
	if r := AnalyzeSigma([]*CFD{p1, p2}); len(r.Duplicates) != 0 {
		t.Errorf("permuted tableaux flagged as duplicates: %v", r.Duplicates)
	}
}

func TestInconsistencyWitnessChain(t *testing.T) {
	// A -> B=b unconditionally, then B=b forces C to two constants.
	sigma := []*Normalized{
		constCFD([]string{"A"}, []string{Wildcard}, "B", "b"),
		constCFD([]string{"B"}, []string{"b"}, "C", "c1"),
		constCFD([]string{"B"}, []string{"b"}, "C", "c2"),
	}
	w := InconsistencyWitness(sigma)
	if w == nil {
		t.Fatal("chained clash must yield a witness")
	}
	if w.Attr != "C" {
		t.Errorf("witness attr = %q, want C", w.Attr)
	}
	if InconsistencyWitness(sigma[:2]) != nil {
		t.Error("consistent prefix must have no witness")
	}
}
