package mining

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

func mkRel(t *testing.T, rows ...[]string) *relation.Relation {
	t.Helper()
	s := relation.MustSchema("T", []string{"a", "b", "c"})
	return relation.MustFromRows(s, rows...)
}

func TestClosedPatternsBasic(t *testing.T) {
	// 6 tuples: a=x in 4 of them; (a=x, b=1) in 4 of them too — so
	// (x, _, _) is NOT closed (its closure is (x, 1, _)).
	d := mkRel(t,
		[]string{"x", "1", "p"},
		[]string{"x", "1", "q"},
		[]string{"x", "1", "p"},
		[]string{"x", "1", "r"},
		[]string{"y", "2", "p"},
		[]string{"z", "3", "q"},
	)
	ps, err := ClosedPatternsWithSupport(d, []string{"a", "b"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("patterns = %v, want exactly the closed (x,1)", render(ps))
	}
	if ps[0].Vals[0] != "x" || ps[0].Vals[1] != "1" {
		t.Errorf("pattern = %v, want [x 1]", ps[0].Vals)
	}
}

func TestClosedPatternsKeepsDistinctSupports(t *testing.T) {
	// a=x support 5; (a=x, b=1) support 3: both closed.
	d := mkRel(t,
		[]string{"x", "1", "p"},
		[]string{"x", "1", "p"},
		[]string{"x", "1", "p"},
		[]string{"x", "2", "p"},
		[]string{"x", "3", "p"},
		[]string{"y", "9", "p"},
	)
	ps, err := ClosedPatternsWithSupport(d, []string{"a", "b"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var hasX, hasX1 bool
	for _, p := range ps {
		if p.Vals[0] == "x" && p.Vals[1] == Wildcard {
			hasX = true
		}
		if p.Vals[0] == "x" && p.Vals[1] == "1" {
			hasX1 = true
		}
	}
	if !hasX || !hasX1 {
		t.Errorf("patterns = %v, want both (x,_) and (x,1)", render(ps))
	}
}

func TestClosedPatternsThreshold(t *testing.T) {
	d := mkRel(t,
		[]string{"x", "1", "p"},
		[]string{"x", "2", "q"},
		[]string{"y", "3", "r"},
		[]string{"z", "4", "s"},
	)
	// theta=0.5 → minSup=2 → only a=x qualifies.
	ps, err := ClosedPatternsWithSupport(d, []string{"a"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Vals[0] != "x" {
		t.Errorf("patterns = %v", render(ps))
	}
	// theta=0.9 → minSup=4 → nothing.
	ps, err = ClosedPatternsWithSupport(d, []string{"a"}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 0 {
		t.Errorf("patterns = %v, want none", render(ps))
	}
	// theta=1.0 over a constant column keeps it.
	d2 := mkRel(t, []string{"k", "1", "p"}, []string{"k", "2", "q"})
	ps, err = ClosedPatternsWithSupport(d2, []string{"a"}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Vals[0] != "k" {
		t.Errorf("patterns = %v, want [[k]]", render(ps))
	}
}

func TestClosedPatternsValidation(t *testing.T) {
	d := mkRel(t, []string{"x", "1", "p"})
	if _, err := ClosedPatternsWithSupport(d, []string{"a"}, 0); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := ClosedPatternsWithSupport(d, []string{"a"}, 1.5); err == nil {
		t.Error("theta>1 accepted")
	}
	if _, err := ClosedPatternsWithSupport(d, []string{"a"}, math.NaN()); err == nil {
		t.Error("theta=NaN accepted")
	}
	if _, err := ClosedPatternsWithSupport(d, []string{"zz"}, 0.5); err == nil {
		t.Error("unknown attribute accepted")
	}
	empty := relation.New(relation.MustSchema("E", []string{"a"}))
	ps, err := ClosedPatternsWithSupport(empty, []string{"a"}, 0.5)
	if err != nil || ps != nil {
		t.Errorf("empty relation: %v, %v", ps, err)
	}
}

func TestSupportSemantics(t *testing.T) {
	// Mined patterns must actually have the promised support.
	rng := rand.New(rand.NewSource(7))
	s := relation.MustSchema("R", []string{"a", "b", "c", "d"})
	d := relation.New(s)
	n := 200
	for i := 0; i < n; i++ {
		d.MustAppend(relation.Tuple{
			fmt.Sprintf("a%d", rng.Intn(3)),
			fmt.Sprintf("b%d", rng.Intn(4)),
			fmt.Sprintf("c%d", rng.Intn(2)),
			fmt.Sprintf("d%d", rng.Intn(10)),
		})
	}
	theta := 0.2
	ps, err := ClosedPatternsWithSupport(d, []string{"a", "b", "c"}, theta)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("expected some frequent patterns at theta=0.2 with tiny domains")
	}
	minSup := int(theta * float64(n))
	for _, p := range ps {
		sup := 0
		for _, tu := range d.Tuples() {
			match := true
			for j, v := range p.Vals {
				if v != Wildcard && tu[j] != v {
					match = false
					break
				}
			}
			if match {
				sup++
			}
		}
		if sup < minSup {
			t.Errorf("pattern %v has support %d < %d", p.Vals, sup, minSup)
		}
	}
	// No all-wildcard row.
	for _, p := range ps {
		allWild := true
		for _, v := range p.Vals {
			if v != Wildcard {
				allWild = false
			}
		}
		if allWild {
			t.Error("all-wildcard pattern returned")
		}
	}
}

func TestClosednessExhaustive(t *testing.T) {
	// Cross-check against a brute-force closed-pattern enumeration on a
	// small random instance.
	rng := rand.New(rand.NewSource(99))
	s := relation.MustSchema("R", []string{"a", "b"})
	for trial := 0; trial < 20; trial++ {
		d := relation.New(s)
		n := 4 + rng.Intn(12)
		for i := 0; i < n; i++ {
			d.MustAppend(relation.Tuple{
				fmt.Sprintf("a%d", rng.Intn(2)),
				fmt.Sprintf("b%d", rng.Intn(3)),
			})
		}
		theta := 0.25
		got, err := ClosedPatternsWithSupport(d, []string{"a", "b"}, theta)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteClosed(d, theta)
		if !samePatternSet(got, want) {
			t.Errorf("trial %d:\n got %v\nwant %v\ndata %v", trial, render(got), render(want), d)
		}
	}
}

// bruteClosed enumerates all patterns over 2 attributes explicitly.
func bruteClosed(d *relation.Relation, theta float64) []Pattern {
	n := d.Len()
	minSup := int(theta * float64(n))
	if float64(minSup) < theta*float64(n) {
		minSup++
	}
	if minSup < 1 {
		minSup = 1
	}
	vals := [2]map[string]bool{{}, {}}
	for _, t := range d.Tuples() {
		vals[0][t[0]] = true
		vals[1][t[1]] = true
	}
	var cands [][]string
	for v0 := range vals[0] {
		cands = append(cands, []string{v0, Wildcard})
		for v1 := range vals[1] {
			cands = append(cands, []string{v0, v1})
		}
	}
	for v1 := range vals[1] {
		cands = append(cands, []string{Wildcard, v1})
	}
	sup := func(p []string) int {
		c := 0
		for _, t := range d.Tuples() {
			if (p[0] == Wildcard || t[0] == p[0]) && (p[1] == Wildcard || t[1] == p[1]) {
				c++
			}
		}
		return c
	}
	var out []Pattern
	for _, p := range cands {
		s := sup(p)
		if s < minSup {
			continue
		}
		closed := true
		for _, q := range cands {
			if moreSpecific(q, p) && sup(q) == s {
				closed = false
				break
			}
		}
		if closed {
			out = append(out, Pattern{Vals: p})
		}
	}
	return out
}

// moreSpecific reports q ⊃ p (strictly more constants, agreeing where
// p has constants).
func moreSpecific(q, p []string) bool {
	strict := false
	for i := range p {
		switch {
		case p[i] == Wildcard && q[i] != Wildcard:
			strict = true
		case p[i] != Wildcard && q[i] != p[i]:
			return false
		}
	}
	return strict
}

// TestSortPatterns pins the generality order mined patterns come out
// in: ascending wildcard count, then lexicographic.
func TestSortPatterns(t *testing.T) {
	d := mkRel(t,
		[]string{"x", "1", "p"},
		[]string{"x", "1", "p"},
		[]string{"x", "2", "p"},
		[]string{"y", "2", "p"},
		[]string{"y", "2", "q"},
		[]string{"y", "3", "q"},
	)
	ps, err := ClosedPatternsWithSupport(d, []string{"a", "b"}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(ps), "(x,1) (y,2) (_,2) (x,_) (y,_)"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

// TestMergePatterns: the cross-site merge unions the per-site lists,
// dedups, puts specific patterns first and copies what it keeps.
func TestMergePatterns(t *testing.T) {
	a := []Pattern{{Vals: []string{"x", Wildcard}}, {Vals: []string{"x", "1"}}}
	b := []Pattern{{Vals: []string{"x", "1"}}, {Vals: []string{"y", Wildcard}}}
	m := MergeRanked(a, b)
	if len(m) != 3 {
		t.Fatalf("merged = %v", render(m))
	}
	// Specific first.
	if m[0].Vals[1] != "1" {
		t.Errorf("order = %v", render(m))
	}
	// Mutation safety: merged patterns are copies.
	m[0].Vals[0] = "mut"
	if a[1].Vals[0] == "mut" || b[0].Vals[0] == "mut" {
		t.Error("MergeRanked aliased inputs")
	}
}

func TestMergeRanked(t *testing.T) {
	// Site 0 is dense in (x,_); site 1 reports the same pattern weakly
	// plus a uniform (_,u) pattern. Equal generality → the concentrated
	// pattern must come first.
	site0 := []Pattern{{Vals: []string{"x", Wildcard}, RelSupport: 0.8}}
	site1 := []Pattern{
		{Vals: []string{"x", Wildcard}, RelSupport: 0.2},
		{Vals: []string{Wildcard, "u"}, RelSupport: 0.21},
	}
	m := MergeRanked(site0, site1)
	if len(m) != 2 {
		t.Fatalf("merged = %v", m)
	}
	if m[0].Vals[0] != "x" || m[0].RelSupport != 0.8 {
		t.Errorf("concentrated pattern not first / max support lost: %+v", m)
	}
	// Specific beats general regardless of support.
	site2 := []Pattern{{Vals: []string{"a", "b"}, RelSupport: 0.1}}
	m2 := MergeRanked(site0, site2)
	if m2[0].Vals[1] != "b" {
		t.Errorf("2-constant pattern should precede 1-constant: %+v", m2)
	}
	if len(MergeRanked()) != 0 {
		t.Error("empty merge should be empty")
	}
}

func TestClosedPatternsWithSupportValues(t *testing.T) {
	d := mkRel(t,
		[]string{"x", "1", "p"}, []string{"x", "2", "p"},
		[]string{"x", "3", "p"}, []string{"y", "4", "p"},
	)
	ps, err := ClosedPatternsWithSupport(d, []string{"a"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].RelSupport != 0.75 {
		t.Errorf("patterns = %+v, want a=x at 0.75", ps)
	}
}

func samePatternSet(a, b []Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p Pattern) string { return strings.Join(p.Vals, "|") }
	m := map[string]bool{}
	for _, p := range a {
		m[key(p)] = true
	}
	for _, p := range b {
		if !m[key(p)] {
			return false
		}
	}
	return true
}

func render(ps []Pattern) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + strings.Join(p.Vals, ",") + ")"
	}
	return strings.Join(parts, " ")
}

// BenchmarkClosedPatternMining measures the miner itself, on the Exp-4
// relation the Section IV-B preprocessing mines.
func BenchmarkClosedPatternMining(b *testing.B) {
	data := workload.XRefHuman(100_000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClosedPatternsWithSupport(data, []string{"external_db", "info_type"}, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
