package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// incrTestSchema has small domains so groups collide and violations
// appear and disappear under deltas.
func incrTestSchema(t *testing.T) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema("R", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomIncrTuple(rng *rand.Rand) relation.Tuple {
	return relation.Tuple{
		fmt.Sprintf("a%d", rng.Intn(3)),
		fmt.Sprintf("b%d", rng.Intn(3)),
		fmt.Sprintf("c%d", rng.Intn(2)),
	}
}

func randomIncrCFD(rng *rand.Rand) *cfd.CFD {
	lhs := make([]string, 2)
	for i := range lhs {
		if rng.Intn(2) == 0 {
			lhs[i] = cfd.Wildcard
		} else {
			lhs[i] = fmt.Sprintf("%s%d", []string{"a", "b"}[i], rng.Intn(3))
		}
	}
	rhs := []string{cfd.Wildcard}
	if rng.Intn(3) == 0 {
		rhs[0] = fmt.Sprintf("c%d", rng.Intn(2))
	}
	return cfd.MustNew("inc", []string{"a", "b"}, []string{"c"},
		[]cfd.PatternTuple{{LHS: lhs, RHS: rhs}})
}

func sortedPatterns(t *testing.T, r *relation.Relation) []string {
	t.Helper()
	var out []string
	idx := make([]int, r.Schema().Arity())
	for i := range idx {
		idx[i] = i
	}
	for _, tp := range r.Tuples() {
		out = append(out, tp.Key(idx))
	}
	sort.Strings(out)
	return out
}

func statePatterns(t *testing.T, s *relation.Schema, c *cfd.CFD, st *IncrementalState) []string {
	t.Helper()
	ps, err := s.Project("viopi_"+c.Name, c.X)
	if err != nil {
		t.Fatal(err)
	}
	dst := relation.New(ps)
	st.Patterns(dst)
	return sortedPatterns(t, dst)
}

// TestIncrementalStateMatchesOneShot folds random insert/delete
// sequences and compares the maintained violating patterns against
// ViolationPatterns over the equivalent multiset at every step.
func TestIncrementalStateMatchesOneShot(t *testing.T) {
	s := incrTestSchema(t)
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		c := randomIncrCFD(rng)
		st, err := NewIncrementalState(s, c, false)
		if err != nil {
			t.Fatal(err)
		}
		live := relation.New(s)
		for step := 0; step < 60; step++ {
			if n := live.Len(); n > 0 && rng.Intn(3) == 0 {
				idx := rng.Intn(n)
				doomed := live.Tuple(idx)
				st.Delete(doomed)
				if _, err := live.Apply(relation.Delta{Deletes: []int{idx}}); err != nil {
					t.Fatal(err)
				}
			} else {
				tp := randomIncrTuple(rng)
				st.Insert(tp)
				live.MustAppend(tp)
			}

			want, err := ViolationPatterns(live, c)
			if err != nil {
				t.Fatal(err)
			}
			got := statePatterns(t, s, c, st)
			wantKeys := sortedPatterns(t, want)
			if fmt.Sprint(got) != fmt.Sprint(wantKeys) {
				t.Fatalf("trial %d step %d cfd %v:\nincremental %v\none-shot    %v",
					trial, step, c, got, wantKeys)
			}
		}
	}
}

// TestIncrementalStateConstantOnly pins the Proposition 5 serving
// state: constant units tracked, variable units ignored.
func TestIncrementalStateConstantOnly(t *testing.T) {
	s := incrTestSchema(t)
	c := cfd.MustNew("mix", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
		{LHS: []string{"a0", cfd.Wildcard}, RHS: []string{"c0"}}, // constant unit
		{LHS: []string{cfd.Wildcard, cfd.Wildcard}, RHS: []string{cfd.Wildcard}},
	})
	st, err := NewIncrementalState(s, c, true)
	if err != nil {
		t.Fatal(err)
	}
	// Two tuples violating the FD row but satisfying the constant row:
	// the constant-only state must stay clean.
	st.Insert(relation.Tuple{"a1", "b0", "c0"})
	st.Insert(relation.Tuple{"a1", "b0", "c1"})
	if len(statePatterns(t, s, c, st)) > 0 {
		t.Fatal("variable-unit violation leaked into constant-only state")
	}
	// A constant-unit violation registers and unregisters.
	bad := relation.Tuple{"a0", "b1", "c1"}
	st.Insert(bad)
	if got := statePatterns(t, s, c, st); len(got) != 1 {
		t.Fatalf("patterns = %v, want the one constant violation", got)
	}
	st.Delete(bad)
	if len(statePatterns(t, s, c, st)) > 0 {
		t.Fatal("constant violation survived its deletion")
	}
}

// TestIncrementalStateSeparatorValues pins the exact grouping keys:
// values assembled around the 0x1f separator must not merge groups.
func TestIncrementalStateSeparatorValues(t *testing.T) {
	s := incrTestSchema(t)
	c := cfd.MustNew("sep", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
		{LHS: []string{cfd.Wildcard, cfd.Wildcard}, RHS: []string{cfd.Wildcard}},
	})
	st, err := NewIncrementalState(s, c, false)
	if err != nil {
		t.Fatal(err)
	}
	// ("x\x1f", "y") and ("x", "\x1fy") would collide under joined keys.
	st.Insert(relation.Tuple{"x\x1f", "y", "c0"})
	st.Insert(relation.Tuple{"x", "\x1fy", "c1"})
	if len(statePatterns(t, s, c, st)) > 0 {
		t.Fatal("distinct groups merged by separator-adjacent values")
	}
	st.Insert(relation.Tuple{"x\x1f", "y", "c1"})
	if len(statePatterns(t, s, c, st)) == 0 {
		t.Fatal("genuine violation missed")
	}
}

// adversarialIncrTuple draws from domains holding the empty string and
// values built around the 0x1f separator, so only value-exact keys keep
// two patterns apart.
func adversarialIncrTuple(rng *rand.Rand) relation.Tuple {
	as := []string{"a0", "a1", "", "a\x1f", "\x1fa"}
	bs := []string{"b0", "b1", "", "\x1fb"}
	return relation.Tuple{as[rng.Intn(len(as))], bs[rng.Intn(len(bs))], fmt.Sprintf("c%d", rng.Intn(2))}
}

// twoUnitCFD makes one X-pattern violate under two normalized units: a
// variable row and a constant row over the same X.
var twoUnitCFD = cfd.MustNew("two", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
	{LHS: []string{cfd.Wildcard, cfd.Wildcard}, RHS: []string{cfd.Wildcard}},
	{LHS: []string{"a0", cfd.Wildcard}, RHS: []string{"c0"}},
})

// minus returns the keys of a that b lacks.
func minus(a, b []string) []string {
	var out []string
	for _, k := range a {
		if !slices.Contains(b, k) {
			out = append(out, k)
		}
	}
	return out
}

// TestIncrementalChangesMatchPatternDiff is the oracle for tracked
// flips: folds of several random inserts and deletes each — so a group
// can flip and flip back inside one fold — over random CFDs, a CFD whose
// patterns violate under two normalized units, and adversarial values.
// After every fold the reported additions and removals must be exactly
// the set differences of the full Patterns before and after it.
func TestIncrementalChangesMatchPatternDiff(t *testing.T) {
	s := incrTestSchema(t)
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		c, draw := randomIncrCFD(rng), randomIncrTuple
		switch trial % 3 {
		case 1:
			c = twoUnitCFD
		case 2:
			draw = adversarialIncrTuple
		}
		st, err := NewIncrementalState(s, c, false)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := s.Project("viopi_"+c.Name, c.X)
		if err != nil {
			t.Fatal(err)
		}
		// Some state before tracking starts, as a seed leaves it.
		var live []relation.Tuple
		for k := rng.Intn(8); k > 0; k-- {
			tp := draw(rng)
			st.Insert(tp)
			live = append(live, tp)
		}
		st.TrackChanges()
		before := statePatterns(t, s, c, st)
		for fold := 0; fold < 40; fold++ {
			for k := 1 + rng.Intn(6); k > 0; k-- {
				if n := len(live); n > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(n)
					st.Delete(live[i])
					live = append(live[:i], live[i+1:]...)
				} else {
					tp := draw(rng)
					st.Insert(tp)
					live = append(live, tp)
				}
			}
			added, removed := relation.New(ps), relation.New(ps)
			st.Changes(added, removed)
			after := statePatterns(t, s, c, st)
			if got, want := sortedPatterns(t, added), minus(after, before); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d fold %d cfd %v: added %q, want %q", trial, fold, c, got, want)
			}
			if got, want := sortedPatterns(t, removed), minus(before, after); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d fold %d cfd %v: removed %q, want %q", trial, fold, c, got, want)
			}
			before = after
		}
	}
}

// TestIncrementalChangesFlipBack pins the cases the oracle reaches only
// by chance: a group that starts and stops violating inside one fold is
// in neither list, and a pattern violating under two units is removed
// only once both stop.
func TestIncrementalChangesFlipBack(t *testing.T) {
	s := incrTestSchema(t)
	st, err := NewIncrementalState(s, twoUnitCFD, false)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.Project("viopi_two", twoUnitCFD.X)
	if err != nil {
		t.Fatal(err)
	}
	changes := func() (added, removed int) {
		a, r := relation.New(ps), relation.New(ps)
		st.Changes(a, r)
		return a.Len(), r.Len()
	}
	st.Insert(relation.Tuple{"a1", "b0", "c0"})
	st.TrackChanges()
	partner := relation.Tuple{"a1", "b0", "c1"}
	st.Insert(partner) // (a1, b0) violates the variable row…
	st.Delete(partner) // …and stops inside the same fold
	if a, r := changes(); a+r != 0 {
		t.Fatalf("a flip and its undo reported %d added, %d removed", a, r)
	}
	wrong, right := relation.Tuple{"a0", "b0", "c1"}, relation.Tuple{"a0", "b0", "c0"}
	st.Insert(wrong) // the constant row
	st.Insert(right) // and the variable row
	if a, r := changes(); a != 1 || r != 0 {
		t.Fatalf("(a0, b0) violating under two units: %d added, %d removed, want 1, 0", a, r)
	}
	st.Delete(right) // the constant row still violates
	if a, r := changes(); a+r != 0 {
		t.Fatalf("one of two units stopping reported %d added, %d removed", a, r)
	}
	st.Delete(wrong)
	if a, r := changes(); a != 0 || r != 1 {
		t.Fatalf("both units stopping: %d added, %d removed, want 0, 1", a, r)
	}
}
