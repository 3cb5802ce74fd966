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
// appear and disappear under deltas; CFDs are over X = [a, b] and
// Y = [c] or [c, d].
func incrTestSchema(t testing.TB) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema("R", []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// plainDomains are the per-attribute value domains of random tuples;
// adversarialDomains hold the empty string and values built around the
// 0x1f separator, so only value-exact keys keep two patterns apart.
var (
	plainDomains       = [][]string{{"a0", "a1", "a2"}, {"b0", "b1", "b2"}, {"c0", "c1"}, {"d0", "d1"}}
	adversarialDomains = [][]string{{"a0", "a1", "", "a\x1f", "\x1fa"}, {"b0", "b1", "", "\x1fb"}, {"c0", "c1", "c\x1f"}, {"d0", "\x1fd"}}
)

func randomIncrTuple(rng *rand.Rand, doms [][]string) relation.Tuple {
	t := make(relation.Tuple, len(doms))
	for i, d := range doms {
		t[i] = d[rng.Intn(len(d))]
	}
	return t
}

// randomIncrCFD draws a tableau over X = [a, b] and Y = [c] or [c, d]
// of 1–4 rows, or now and then up to 64. An entry is the wildcard, a
// value of the attribute's domain, or a constant the data never holds;
// a row now and then repeats an earlier one.
func randomIncrCFD(rng *rand.Rand, doms [][]string) *cfd.CFD {
	y := []string{"c"}
	if rng.Intn(2) == 0 {
		y = append(y, "d")
	}
	n := 1 + rng.Intn(4)
	if rng.Intn(4) == 0 {
		n = 1 + rng.Intn(64)
	}
	entry := func(attr int) string {
		switch r := rng.Intn(8); {
		case r < 4:
			return cfd.Wildcard
		case r == 4:
			return "never"
		default:
			return doms[attr][rng.Intn(len(doms[attr]))]
		}
	}
	rows := make([]cfd.PatternTuple, n)
	for i := range rows {
		if i > 0 && rng.Intn(5) == 0 {
			rows[i] = rows[rng.Intn(i)].Clone()
			continue
		}
		rows[i] = cfd.PatternTuple{LHS: []string{entry(0), entry(1)}}
		for j := range y {
			rows[i].RHS = append(rows[i].RHS, entry(2+j))
		}
	}
	return cfd.MustNew("inc", []string{"a", "b"}, y, rows)
}

func sortedPatterns(t testing.TB, r *relation.Relation) []string {
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

func statePatterns(t testing.TB, s *relation.Schema, c *cfd.CFD, st *IncrementalState) []string {
	t.Helper()
	dst := relation.New(patternSchema(t, s, c))
	st.Patterns(dst)
	return sortedPatterns(t, dst)
}

func patternSchema(t testing.TB, s *relation.Schema, c *cfd.CFD) *relation.Schema {
	t.Helper()
	ps, err := s.Project("viopi_"+c.Name, c.X)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// oraclePatterns is what a state over c must hold for the multiset
// live: ViolationPatterns of c, or, for a constant-only state, the
// union of ViolationPatterns over the one-row, one-attribute CFDs of
// c's RHS constants. Keys come sorted and once each.
func oraclePatterns(t testing.TB, s *relation.Schema, live []relation.Tuple, c *cfd.CFD, constantOnly bool) []string {
	t.Helper()
	d, err := relation.FromTuples(s, live)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*cfd.CFD{c}
	if constantOnly {
		cs = nil
		for _, p := range c.Tp {
			for j, a := range p.RHS {
				if a != cfd.Wildcard {
					cs = append(cs, cfd.MustNew(c.Name, c.X, []string{c.Y[j]}, []cfd.PatternTuple{{LHS: p.LHS, RHS: []string{a}}}))
				}
			}
		}
	}
	var keys []string
	for _, c := range cs {
		want, err := ViolationPatterns(d, c)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, sortedPatterns(t, want)...)
	}
	sort.Strings(keys)
	return slices.Compact(keys)
}

// incrCheck folds operations into one state and checks it against the
// oracle: Patterns after any fold, Changes against the oracle's
// difference since changes were last taken.
type incrCheck struct {
	t            testing.TB
	s            *relation.Schema
	c            *cfd.CFD
	constantOnly bool
	st           *IncrementalState
	live         []relation.Tuple
	before       []string // the oracle when changes were last taken
}

func newIncrCheck(t testing.TB, s *relation.Schema, c *cfd.CFD, constantOnly bool) *incrCheck {
	t.Helper()
	st, err := NewIncrementalState(s, c, constantOnly)
	if err != nil {
		t.Fatal(err)
	}
	return &incrCheck{t: t, s: s, c: c, constantOnly: constantOnly, st: st}
}

func (k *incrCheck) insert(tp relation.Tuple) {
	k.st.Insert(tp)
	k.live = append(k.live, tp)
}

func (k *incrCheck) delete(i int) {
	k.st.Delete(k.live[i])
	k.live = slices.Delete(k.live, i, i+1)
}

// foldCounted folds n copies of tp as one counted row (FoldRelation):
// inserted, or deleted from the live copies of tp.
func (k *incrCheck) foldCounted(tp relation.Tuple, n int, insert bool) {
	k.t.Helper()
	r := relation.MustFromRows(k.s, tp)
	if err := r.SetCounts([]uint32{uint32(n)}); err != nil {
		k.t.Fatal(err)
	}
	if err := k.st.FoldRelation(r, insert); err != nil {
		k.t.Fatal(err)
	}
	for ; insert && n > 0; n-- {
		k.live = append(k.live, tp)
	}
	for ; n > 0; n-- {
		i := slices.IndexFunc(k.live, tp.Equal)
		k.live = slices.Delete(k.live, i, i+1)
	}
}

// copies counts the live copies of tp.
func (k *incrCheck) copies(tp relation.Tuple) int {
	n := 0
	for _, l := range k.live {
		if l.Equal(tp) {
			n++
		}
	}
	return n
}

// step inserts a random tuple or, one time in three, deletes a live one.
func (k *incrCheck) step(rng *rand.Rand, doms [][]string) {
	if n := len(k.live); n > 0 && rng.Intn(3) == 0 {
		k.delete(rng.Intn(n))
	} else {
		k.insert(randomIncrTuple(rng, doms))
	}
}

// track starts tracking changes from the current state.
func (k *incrCheck) track() {
	k.st.TrackChanges()
	k.before = oraclePatterns(k.t, k.s, k.live, k.c, k.constantOnly)
}

func (k *incrCheck) checkPatterns(at string) {
	k.t.Helper()
	got := statePatterns(k.t, k.s, k.c, k.st)
	if want := oraclePatterns(k.t, k.s, k.live, k.c, k.constantOnly); fmt.Sprint(got) != fmt.Sprint(want) {
		k.t.Fatalf("%s cfd %v constantOnly=%v:\nincremental %q\noracle      %q", at, k.c, k.constantOnly, got, want)
	}
}

func (k *incrCheck) checkChanges(at string) {
	k.t.Helper()
	ps := patternSchema(k.t, k.s, k.c)
	added, removed := relation.New(ps), relation.New(ps)
	k.st.Changes(added, removed)
	after := oraclePatterns(k.t, k.s, k.live, k.c, k.constantOnly)
	if got, want := sortedPatterns(k.t, added), minus(after, k.before); fmt.Sprint(got) != fmt.Sprint(want) {
		k.t.Fatalf("%s cfd %v constantOnly=%v: added %q, want %q", at, k.c, k.constantOnly, got, want)
	}
	if got, want := sortedPatterns(k.t, removed), minus(k.before, after); fmt.Sprint(got) != fmt.Sprint(want) {
		k.t.Fatalf("%s cfd %v constantOnly=%v: removed %q, want %q", at, k.c, k.constantOnly, got, want)
	}
	k.before = after
}

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

// trialDomains alternates plain and adversarial values by trial.
func trialDomains(trial int) [][]string {
	if trial%2 == 1 {
		return adversarialDomains
	}
	return plainDomains
}

// TestIncrementalStateMatchesOneShot folds random insert/delete
// sequences over random tableaux and compares the maintained violating
// patterns against ViolationPatterns over the equivalent multiset at
// every step.
func TestIncrementalStateMatchesOneShot(t *testing.T) {
	s := incrTestSchema(t)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		doms := trialDomains(trial)
		k := newIncrCheck(t, s, randomIncrCFD(rng, doms), false)
		for step := 0; step < 60; step++ {
			k.step(rng, doms)
			k.checkPatterns(fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
}

// TestIncrementalStateConstantOnly pins the Proposition 5 serving
// state: only tuples breaking an RHS constant of a row they match
// count, on a fixed case and on random tableaux, whose oracle is the
// union over the one-row, one-attribute constant CFDs.
func TestIncrementalStateConstantOnly(t *testing.T) {
	s := incrTestSchema(t)
	c := cfd.MustNew("mix", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
		{LHS: []string{"a0", cfd.Wildcard}, RHS: []string{"c0"}}, // constant row
		{LHS: []string{cfd.Wildcard, cfd.Wildcard}, RHS: []string{cfd.Wildcard}},
	})
	st, err := NewIncrementalState(s, c, true)
	if err != nil {
		t.Fatal(err)
	}
	// Two tuples violating the FD row but satisfying the constant row:
	// the constant-only state must stay clean.
	st.Insert(relation.Tuple{"a1", "b0", "c0", "d0"})
	st.Insert(relation.Tuple{"a1", "b0", "c1", "d0"})
	if len(statePatterns(t, s, c, st)) > 0 {
		t.Fatal("variable-row violation leaked into constant-only state")
	}
	// A constant-row violation registers and unregisters.
	bad := relation.Tuple{"a0", "b1", "c1", "d0"}
	st.Insert(bad)
	if got := statePatterns(t, s, c, st); len(got) != 1 {
		t.Fatalf("patterns = %v, want the one constant violation", got)
	}
	st.Delete(bad)
	if len(statePatterns(t, s, c, st)) > 0 {
		t.Fatal("constant violation survived its deletion")
	}

	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		doms := trialDomains(trial)
		k := newIncrCheck(t, s, randomIncrCFD(rng, doms), true)
		for step := 0; step < 60; step++ {
			k.step(rng, doms)
			k.checkPatterns(fmt.Sprintf("trial %d step %d", trial, step))
		}
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
	st.Insert(relation.Tuple{"x\x1f", "y", "c0", "d0"})
	st.Insert(relation.Tuple{"x", "\x1fy", "c1", "d0"})
	if len(statePatterns(t, s, c, st)) > 0 {
		t.Fatal("distinct groups merged by separator-adjacent values")
	}
	st.Insert(relation.Tuple{"x\x1f", "y", "c1", "d0"})
	if len(statePatterns(t, s, c, st)) == 0 {
		t.Fatal("genuine violation missed")
	}
}

// TestFoldRelationTooNarrow pins that a relation lacking an RHS
// position the state reads is an error, not an index panic.
func TestFoldRelationTooNarrow(t *testing.T) {
	st, err := NewIncrementalState(relation.MustSchema("R", []string{"a", "b", "c"}), cfd.MustParse(`n: [a] -> [c]`), false)
	if err != nil {
		t.Fatal(err)
	}
	narrow := relation.MustFromRows(relation.MustSchema("R2", []string{"a", "b"}), []string{"a0", "b0"})
	if err := st.FoldRelation(narrow, true); err == nil {
		t.Fatal("a relation without the RHS column folded")
	}
}

// TestFoldRelationCountedMatchesExpanded pins that a counted relation
// folds as its expanded bag — row i as counts[i] tuples — in both
// modes, and that the two states stay equal as the bag's copies are
// deleted one at a time.
func TestFoldRelationCountedMatchesExpanded(t *testing.T) {
	s := relation.MustSchema("R", []string{"a", "c"})
	c := cfd.MustParse(`n: [a] -> [c] : (_ || _), (a1 || c0)`)
	rows := relation.MustFromRows(s, []string{"a0", "c0"}, []string{"a0", "c1"}, []string{"a1", "c1"}, []string{"a2", "c0"})
	counts := []uint32{2, 1, 3, 2}
	if err := rows.SetCounts(counts); err != nil {
		t.Fatal(err)
	}
	for _, constantOnly := range []bool{false, true} {
		counted, expanded := newIncrCheck(t, s, c, constantOnly), newIncrCheck(t, s, c, constantOnly)
		if err := counted.st.FoldRelation(rows, true); err != nil {
			t.Fatal(err)
		}
		var bag []relation.Tuple
		for i, tp := range rows.Tuples() {
			for range counts[i] {
				bag = append(bag, tp)
				expanded.insert(tp)
			}
		}
		counted.live = slices.Clone(bag)
		same := func(at string) []string {
			t.Helper()
			got, want := statePatterns(t, s, c, counted.st), statePatterns(t, s, c, expanded.st)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("constantOnly=%v %s: the counted fold holds %q, its expanded bag %q", constantOnly, at, got, want)
			}
			return got
		}
		if len(same("inserted")) == 0 {
			t.Fatalf("constantOnly=%v: the bag violates nothing", constantOnly)
		}
		for i, tp := range bag {
			counted.foldCounted(tp, 1, false)
			expanded.delete(0)
			same(fmt.Sprintf("after %d deletes", i+1))
		}
	}
}

// twoRowCFD makes one X-pattern violate under two rows: a variable row
// and a constant row over the same X.
var twoRowCFD = cfd.MustNew("two", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
	{LHS: []string{cfd.Wildcard, cfd.Wildcard}, RHS: []string{cfd.Wildcard}},
	{LHS: []string{"a0", cfd.Wildcard}, RHS: []string{"c0"}},
})

// TestIncrementalChangesMatchPatternDiff is the oracle for tracked
// flips: folds of several random inserts and deletes each — so a group
// can flip and flip back inside one fold — over random tableaux, a CFD
// whose patterns violate under two rows, and adversarial values, in
// both modes. After every fold the reported additions and removals
// must be exactly the set differences of the oracle before and after
// it.
func TestIncrementalChangesMatchPatternDiff(t *testing.T) {
	s := incrTestSchema(t)
	for trial := 0; trial < 240; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		doms := trialDomains(trial / 2)
		c := randomIncrCFD(rng, doms)
		if trial%5 == 0 {
			c = twoRowCFD
		}
		k := newIncrCheck(t, s, c, trial%2 == 1)
		// Some state before tracking starts; a seed tracks from empty.
		for n := rng.Intn(8); n > 0; n-- {
			k.step(rng, doms)
		}
		k.track()
		for fold := 0; fold < 40; fold++ {
			for n := 1 + rng.Intn(6); n > 0; n-- {
				k.step(rng, doms)
			}
			k.checkChanges(fmt.Sprintf("trial %d fold %d", trial, fold))
		}
	}
}

// TestIncrementalChangesFlipBack pins the cases the oracle reaches only
// by chance: a group that starts and stops violating inside one fold is
// in neither list, and a pattern violating under two rows is removed
// only once both stop.
func TestIncrementalChangesFlipBack(t *testing.T) {
	s := incrTestSchema(t)
	st, err := NewIncrementalState(s, twoRowCFD, false)
	if err != nil {
		t.Fatal(err)
	}
	ps := patternSchema(t, s, twoRowCFD)
	changes := func() (added, removed int) {
		a, r := relation.New(ps), relation.New(ps)
		st.Changes(a, r)
		return a.Len(), r.Len()
	}
	st.Insert(relation.Tuple{"a1", "b0", "c0", "d0"})
	st.TrackChanges()
	partner := relation.Tuple{"a1", "b0", "c1", "d0"}
	st.Insert(partner) // (a1, b0) violates the variable row…
	st.Delete(partner) // …and stops inside the same fold
	if a, r := changes(); a+r != 0 {
		t.Fatalf("a flip and its undo reported %d added, %d removed", a, r)
	}
	wrong, right := relation.Tuple{"a0", "b0", "c1", "d0"}, relation.Tuple{"a0", "b0", "c0", "d0"}
	st.Insert(wrong) // the constant row
	st.Insert(right) // and the variable row
	if a, r := changes(); a != 1 || r != 0 {
		t.Fatalf("(a0, b0) violating under two rows: %d added, %d removed, want 1, 0", a, r)
	}
	st.Delete(right) // the constant row still violates
	if a, r := changes(); a+r != 0 {
		t.Fatalf("one of two rows stopping reported %d added, %d removed", a, r)
	}
	st.Delete(wrong)
	if a, r := changes(); a != 0 || r != 1 {
		t.Fatalf("both rows stopping: %d added, %d removed, want 0, 1", a, r)
	}
}

// FuzzIncremental decodes a tableau and a stream of inserts and deletes
// — of one tuple, or of several copies of one folded as a counted row —
// from the fuzz input and, after every operation, checks Patterns and
// Changes of a full and a constant-only state against the oracles of
// the property tests. Exhausted input ends the stream.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 7, 1, 1, 2, 3, 4, 0, 0, 3, 0, 1, 2, 3, 3})
	f.Add([]byte("\x05\x05\x06\x00\x00\x01\x1f wildcards _ and \x1f separators"))
	// Two copies inserted as one counted row, a second c-value beside
	// them, then one copy deleted: the group still holds both values.
	f.Add([]byte{0, 0, 0, 0, 129, 1, 1, 1, 1, 1, 1, 1, 2, 1, 3, 0})
	// Three copies inserted as one row, two of them deleted as one.
	f.Add([]byte{0, 0, 0, 0, 130, 1, 1, 1, 1, 1, 1, 1, 2, 1, 129, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ops := decodeIncrCase(data)
		if c == nil {
			t.Skip()
		}
		s := incrTestSchema(t)
		for _, constantOnly := range []bool{false, true} {
			k := newIncrCheck(t, s, c, constantOnly)
			k.track()
			for i, op := range ops {
				switch {
				case op.del < 0 && op.n == 0:
					k.insert(op.ins)
				case op.del < 0:
					k.foldCounted(op.ins, op.n, true)
				case len(k.live) == 0: // a counted delete took more than the decoder counted
				case op.n == 0:
					k.delete(op.del % len(k.live))
				default:
					tp := k.live[op.del%len(k.live)]
					k.foldCounted(tp, min(op.n, k.copies(tp)), false)
				}
				at := fmt.Sprintf("op %d", i)
				k.checkPatterns(at)
				k.checkChanges(at)
			}
		}
	})
}

// incrOp inserts ins, or deletes the live tuple at del when del ≥ 0.
// With n > 0 it folds n copies as one counted row: n copies of ins, or
// up to n live copies of the tuple at del.
type incrOp struct {
	ins relation.Tuple
	del int
	n   int
}

// decodeIncrCase reads a tableau over X = [a, b], Y = [c] or [c, d]
// with 1–8 rows, then up to 64 operations, every value from
// fuzzPalette. An operation byte of 128 or more makes the operation a
// counted one of 1–4 copies.
func decodeIncrCase(data []byte) (*cfd.CFD, []incrOp) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	value := func(b int) string { return fuzzPalette[b%len(fuzzPalette)] }
	entry := func() string {
		if b := next(); b%4 != 0 {
			return value(b)
		}
		return cfd.Wildcard
	}
	head := next()
	y := []string{"c", "d"}[:1+head%2]
	rows := make([]cfd.PatternTuple, 1+head/2%8)
	for i := range rows {
		rows[i].LHS = []string{entry(), entry()}
		for range y {
			rows[i].RHS = append(rows[i].RHS, entry())
		}
	}
	c, err := cfd.New("fz", []string{"a", "b"}, y, rows)
	if err != nil {
		return nil, nil
	}
	var ops []incrOp
	for live := 0; len(data) > 0 && len(ops) < 64; {
		b, n := next(), 0
		if b >= 128 {
			n = 1 + b%4
		}
		if b%3 == 0 && live > 0 {
			ops = append(ops, incrOp{del: next(), n: n})
			live--
			continue
		}
		ops = append(ops, incrOp{ins: relation.Tuple{value(next()), value(next()), value(next()), value(next())}, del: -1, n: n})
		live += max(n, 1)
	}
	return c, ops
}
