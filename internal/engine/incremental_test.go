package engine

import (
	"fmt"
	"math/rand"
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
	st.Patterns(dst, map[string]struct{}{})
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
