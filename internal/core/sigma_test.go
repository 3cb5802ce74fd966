package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

func TestNewBlockSpecSortsAndDedupes(t *testing.T) {
	spec, err := NewBlockSpec([]string{"a", "b"}, [][]string{
		{"_", "_"},
		{"1", "_"},
		{"1", "2"},
		{"1", "_"}, // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.K() != 3 {
		t.Fatalf("K = %d, want 3 (dedup)", spec.K())
	}
	if countWildcards(spec.Patterns[0]) != 0 ||
		countWildcards(spec.Patterns[1]) != 1 ||
		countWildcards(spec.Patterns[2]) != 2 {
		t.Errorf("order = %v", spec.Patterns)
	}
}

func TestNewBlockSpecValidation(t *testing.T) {
	if _, err := NewBlockSpec(nil, [][]string{{"x"}}); err == nil {
		t.Error("empty X accepted")
	}
	if _, err := NewBlockSpec([]string{"a"}, nil); err == nil {
		t.Error("no patterns accepted")
	}
	if _, err := NewBlockSpec([]string{"a"}, [][]string{{"x", "y"}}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestAssignFirstMatchSemantics(t *testing.T) {
	spec, err := NewBlockSpec([]string{"a", "b"}, [][]string{
		{"1", "2"}, // most specific
		{"1", "_"},
		{"_", "_"}, // catch-all
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		vals []string
		want int
	}{
		{[]string{"1", "2"}, 0},
		{[]string{"1", "9"}, 1},
		{[]string{"7", "7"}, 2},
	}
	for _, c := range cases {
		if got := spec.Assign(c.vals); got != c.want {
			t.Errorf("Assign(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
}

func TestAssignNoMatch(t *testing.T) {
	spec, err := NewBlockSpec([]string{"a"}, [][]string{{"1"}, {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Assign([]string{"9"}); got != -1 {
		t.Errorf("Assign(9) = %d, want -1", got)
	}
}

// TestAssignIndexAgreesWithScan: the hash index must agree with a
// naive first-match scan on random patterns and values.
func TestAssignIndexAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		nx := 1 + rng.Intn(3)
		x := make([]string, nx)
		for i := range x {
			x[i] = fmt.Sprintf("x%d", i)
		}
		k := 1 + rng.Intn(8)
		pats := make([][]string, k)
		for p := range pats {
			row := make([]string, nx)
			for i := range row {
				if rng.Intn(2) == 0 {
					row[i] = cfd.Wildcard
				} else {
					row[i] = fmt.Sprintf("v%d", rng.Intn(3))
				}
			}
			pats[p] = row
		}
		spec, err := NewBlockSpec(x, pats)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 50; probe++ {
			vals := make([]string, nx)
			for i := range vals {
				vals[i] = fmt.Sprintf("v%d", rng.Intn(4))
			}
			want := -1
			for l, p := range spec.Patterns {
				if cfd.MatchAll(vals, p) {
					want = l
					break
				}
			}
			if got := spec.Assign(vals); got != want {
				t.Fatalf("Assign(%v) = %d, scan = %d, patterns %v", vals, got, want, spec.Patterns)
			}
		}
	}
}

func TestAssignAllCounts(t *testing.T) {
	s := relation.MustSchema("T", []string{"a", "b"})
	d := relation.MustFromRows(s,
		[]string{"1", "x"}, []string{"1", "y"}, []string{"2", "x"}, []string{"9", "z"},
	)
	spec, err := NewBlockSpec([]string{"a"}, [][]string{{"1"}, {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	assign, counts, err := spec.AssignAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if assign[3] != -1 {
		t.Errorf("unmatched tuple assigned to %d", assign[3])
	}
	if _, _, err := spec.AssignAll(relation.MustFromRows(relation.MustSchema("U", []string{"z"}), []string{"1"})); err == nil {
		t.Error("expected error for missing attributes")
	}
}

func TestPatternPredicateFromSpec(t *testing.T) {
	spec, err := NewBlockSpec([]string{"a", "b"}, [][]string{{"1", "_"}})
	if err != nil {
		t.Fatal(err)
	}
	p := spec.PatternPredicate(0)
	if len(p.Atoms) != 1 || p.Atoms[0].Attr != "a" {
		t.Errorf("predicate = %v", p)
	}
}

// TestRestrictCFD pins the one block rule: in block l a row is dropped
// when it names another constant than pattern l on an attribute of the
// spec, kept when either names a wildcard there, and a CFD with no row
// left is skipped (nil). The spec may order its attributes differently
// from the CFD and cover only part of its LHS; one it does not cover is
// refused.
func TestRestrictCFD(t *testing.T) {
	c := cfd.MustParse(`r: [a, b] -> [y] : (1, _ || _), (2, _ || _), (_, 3 || _)`)
	for _, tc := range []struct {
		x        []string
		patterns [][]string
		want     [][]int // per block, the kept rows of c; nil = skipped
	}{
		{[]string{"b", "a"}, [][]string{{"3", "1"}, {"_", "2"}, {"4", "9"}, {"_", "_"}},
			[][]int{{0, 2}, {1, 2}, nil, {0, 1, 2}}},
		{[]string{"a"}, [][]string{{"1"}, {"9"}, {"_"}},
			[][]int{{0, 2}, {2}, {0, 1, 2}}},
	} {
		spec, err := NewBlockSpecOrdered(tc.x, tc.patterns)
		if err != nil {
			t.Fatal(err)
		}
		inBlock, err := spec.Restrict([]*cfd.CFD{c})
		if err != nil {
			t.Fatal(err)
		}
		for l, rows := range tc.want {
			r := inBlock(0, l)
			if rows == nil {
				if r != nil {
					t.Errorf("X %v block %v: kept %v, want the CFD skipped", tc.x, spec.Patterns[l], r.Tp)
				}
				continue
			}
			var want []cfd.PatternTuple
			for _, i := range rows {
				want = append(want, c.Tp[i])
			}
			if r == nil || fmt.Sprint(r.Tp) != fmt.Sprint(want) {
				t.Errorf("X %v block %v: kept %v, want %v", tc.x, spec.Patterns[l], r, want)
			}
		}
	}
	outside, err := NewBlockSpec([]string{"z"}, [][]string{{"_"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := outside.Restrict([]*cfd.CFD{c}); err == nil {
		t.Error("a spec over an attribute outside the CFD's LHS was accepted")
	}
}

// TestBulkRulesCompileToOneCCUnit pins what the default clustered
// compile makes of the bulk workload's two rules (workload.
// CustPatternCFD(64) over [CC, AC, zip] and workload.CustStreetCFD over
// [CC, zip]): one unit over X = [CC, zip] whose 16 σ-patterns are
// (cc, _), one a country code, shipping [CC zip AC city street]. So a
// σ-pattern fixes CC alone: one of the five columns every shipped and
// locally gathered block carries is constant across the block, not two.
func TestBulkRulesCompileToOneCCUnit(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 2_000, Seed: 5})
	h, err := partition.Uniform(data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		sites[i] = NewSite(i, frag, relation.True())
	}
	cl, err := NewCluster(h.Schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	rules := []*cfd.CFD{workload.CustPatternCFD(64), workload.CustStreetCFD()}
	p, err := CompileSet(context.Background(), cl, rules, PatDetectS, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 1 || res.Units[0].Spec == nil {
		t.Fatalf("%d units, want one σ-partitioned unit", len(res.Units))
	}
	spec := res.Units[0].Spec
	if !slices.Equal(spec.X, []string{"CC", "zip"}) || spec.K() != 16 {
		t.Fatalf("unit over X = %v with %d patterns, want [CC zip] with 16", spec.X, spec.K())
	}
	ccs := map[string]bool{}
	for _, pat := range spec.Patterns {
		if pat[0] == cfd.Wildcard || pat[1] != cfd.Wildcard {
			t.Fatalf("pattern %v, want (cc, _)", pat)
		}
		ccs[pat[0]] = true
	}
	if len(ccs) != 16 {
		t.Errorf("patterns name %d country codes, want 16", len(ccs))
	}
	if got := taskAttrs(spec, res.CFDs); !slices.Equal(got, []string{"CC", "zip", "AC", "city", "street"}) {
		t.Errorf("the unit ships %v, want [CC zip AC city street]", got)
	}
}
