package relation

import (
	"strings"
	"testing"
)

func TestPredicateEval(t *testing.T) {
	s := MustSchema("T", []string{"title", "CC"})
	mts := Tuple{"MTS", "44"}
	vp := Tuple{"VP", "01"}

	cases := []struct {
		name string
		p    Predicate
		t    Tuple
		want bool
	}{
		{"true-pred", True(), mts, true},
		{"eq-hit", And(Eq("title", "MTS")), mts, true},
		{"eq-miss", And(Eq("title", "MTS")), vp, false},
		{"ne-hit", And(Ne("title", "MTS")), vp, true},
		{"ne-miss", And(Ne("title", "MTS")), mts, false},
		{"in-hit", And(In("CC", "44", "31")), mts, true},
		{"in-miss", And(In("CC", "44", "31")), vp, false},
		{"conj-hit", And(Eq("title", "MTS"), Eq("CC", "44")), mts, true},
		{"conj-miss", And(Eq("title", "MTS"), Eq("CC", "01")), mts, false},
		{"unknown-attr", And(Eq("nope", "x")), mts, false},
	}
	for _, c := range cases {
		if got := c.p.Eval(s, c.t); got != c.want {
			t.Errorf("%s: Eval = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPredicateConsistency(t *testing.T) {
	cases := []struct {
		name string
		p, q Predicate
		want bool
	}{
		{"both-true", True(), True(), true},
		{"same-eq", And(Eq("a", "1")), And(Eq("a", "1")), true},
		{"clash-eq", And(Eq("a", "1")), And(Eq("a", "2")), false},
		{"different-attrs", And(Eq("a", "1")), And(Eq("b", "2")), true},
		{"in-overlap", And(In("a", "1", "2")), And(In("a", "2", "3")), true},
		{"in-disjoint", And(In("a", "1", "2")), And(In("a", "3", "4")), false},
		{"eq-in-hit", And(Eq("a", "2")), And(In("a", "1", "2")), true},
		{"eq-in-miss", And(Eq("a", "5")), And(In("a", "1", "2")), false},
		{"ne-alone-fine", And(Ne("a", "1")), And(Ne("a", "2")), true},
		{"ne-kills-eq", And(Eq("a", "1")), And(Ne("a", "1")), false},
		{"ne-spares-other-eq", And(Eq("a", "1")), And(Ne("a", "2")), true},
		{"ne-exhausts-in", And(In("a", "1", "2")), And(Ne("a", "1"), Ne("a", "2")), false},
		{"self-contradictory-left", And(Eq("a", "1"), Eq("a", "2")), True(), false},
	}
	for _, c := range cases {
		if got := c.p.ConsistentWith(c.q); got != c.want {
			t.Errorf("%s: ConsistentWith = %v, want %v", c.name, got, c.want)
		}
		if got := c.q.ConsistentWith(c.p); got != c.want {
			t.Errorf("%s (sym): ConsistentWith = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFragmentPruningScenario replays the Section IV-A partitioning
// condition: a fragment holding only title='VP' tuples can be skipped
// for a pattern requiring title='MTS'.
func TestFragmentPruningScenario(t *testing.T) {
	fragment := And(Eq("title", "VP"))
	patternMTS := And(Eq("title", "MTS"), Eq("CC", "44"))
	patternAny := And(Eq("CC", "44"))
	if fragment.ConsistentWith(patternMTS) {
		t.Error("VP fragment should be pruned for MTS pattern")
	}
	if !fragment.ConsistentWith(patternAny) {
		t.Error("VP fragment must not be pruned for a CC-only pattern")
	}
}

func TestPredicateString(t *testing.T) {
	p := And(Eq("a", "1"), Ne("b", "2"), In("c", "x", "y"))
	s := p.String()
	for _, want := range []string{"a = 1", "b != 2", "c in {x,y}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if True().String() != "true" {
		t.Errorf("True().String() = %q", True().String())
	}
}
