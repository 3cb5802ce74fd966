package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"distcfd/internal/cfd"
	"distcfd/internal/engine"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

// Property-based tests (testing/quick) for the invariants the
// correctness of Section IV rests on.

// TestPropertySigmaPartitionIsFunctionOfX: σ(t) depends only on t[X] —
// the fact that lets equal-X tuples land at one coordinator (Lemma 6).
func TestPropertySigmaPartitionIsFunctionOfX(t *testing.T) {
	spec, err := NewBlockSpec([]string{"a", "b"}, [][]string{
		{"v0", "v1"}, {"v0", "_"}, {"_", "v1"}, {"_", "_"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a1, b1 uint8) bool {
		x := []string{fmt.Sprintf("v%d", a1%3), fmt.Sprintf("v%d", b1%3)}
		first := spec.Assign(x)
		// Re-asking must be deterministic, and any tuple with equal
		// X-projection gets the same block by construction.
		return spec.Assign(x) == first && first >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyLemma6 checks Lemma 6 itself on random instances:
// Vioπ(φ, D) = ∪_l Vioπ(φ_l, H^l) — checking each σ-block with the
// CFD's restriction to it (BlockSpec.Restrict) loses nothing, adds
// nothing, and no pattern comes from two blocks. The CFDs have |Y| = 2,
// rows mixing a constant and a wildcard RHS, and overlapping LHS
// patterns; the specs are a single rule's, a cluster's over a shared
// W ⊂ X (projectedSpec), and a mined one's.
func TestPropertyLemma6(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		d := randomRelation(rng, 40)
		single := randomMixedView(rng, []string{"a", "b"}, []string{"c", "d"})
		cluster := []*cfd.CFD{
			randomMixedView(rng, []string{"a", "b"}, []string{"c", "d"}),
			randomMixedView(rng, []string{"a", "c"}, []string{"b", "d"}),
		}
		clusterSpec, err := projectedSpec(sharedLHS(cluster), cluster)
		if err != nil {
			t.Fatal(err)
		}
		singleSpec, err := SpecFromCFD(single)
		if err != nil {
			t.Fatal(err)
		}
		// A mined spec's patterns come from the data, not the tableau,
		// and end in the all-wildcard one.
		minedSpec, err := NewBlockSpecOrdered(single.X, [][]string{
			{fmt.Sprintf("a%d", rng.Intn(3)), cfd.Wildcard}, {cfd.Wildcard, fmt.Sprintf("b%d", rng.Intn(3))}, {cfd.Wildcard, cfd.Wildcard},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			kind  string
			spec  *BlockSpec
			views []*cfd.CFD
		}{
			{"single", singleSpec, []*cfd.CFD{single}},
			{"cluster", clusterSpec, cluster},
			{"mined", minedSpec, []*cfd.CFD{single}},
		} {
			assign, _, err := tc.spec.AssignAll(d)
			if err != nil {
				t.Fatal(err)
			}
			inBlock, err := tc.spec.Restrict(tc.views)
			if err != nil {
				t.Fatal(err)
			}
			for vi, view := range tc.views {
				got := map[string]bool{}
				for l := 0; l < tc.spec.K(); l++ {
					rl := inBlock(vi, l)
					if rl == nil {
						continue
					}
					block := relation.New(d.Schema())
					for i, t := range d.Tuples() {
						if assign[i] == l {
							block.MustAppend(t)
						}
					}
					pats, err := engine.ViolationPatterns(block, rl)
					if err != nil {
						t.Fatal(err)
					}
					for k := range patternsOf(pats) {
						if got[k] {
							t.Fatalf("trial %d %s: pattern %q reported by two blocks", trial, tc.kind, k)
						}
						got[k] = true
					}
				}
				whole, err := engine.ViolationPatterns(d, view)
				if err != nil {
					t.Fatal(err)
				}
				if want := patternsOf(whole); !sameSet(got, want) {
					t.Fatalf("trial %d %s: Lemma 6 broken\n got %v\nwant %v\ncfd %v\nspec %v",
						trial, tc.kind, keys(got), keys(want), view, tc.spec.Patterns)
				}
			}
		}
	}
}

// randomMixedView draws a variable view over x → y (|y| = 2): 2–4 rows,
// each LHS entry a wildcard or one of two constants (so rows overlap),
// each RHS one constant and one wildcard in random order, or two
// wildcards.
func randomMixedView(rng *rand.Rand, x, y []string) *cfd.CFD {
	var rows []cfd.PatternTuple
	for n := 2 + rng.Intn(3); n > 0; n-- {
		lhs := make([]string, len(x))
		for i, a := range x {
			lhs[i] = cfd.Wildcard
			if rng.Intn(2) == 0 {
				lhs[i] = fmt.Sprintf("%s%d", a, rng.Intn(2))
			}
		}
		rhs := []string{cfd.Wildcard, cfd.Wildcard}
		if k := rng.Intn(3); k < 2 {
			rhs[k] = fmt.Sprintf("%s%d", y[k], rng.Intn(2))
		}
		rows = append(rows, cfd.PatternTuple{LHS: lhs, RHS: rhs})
	}
	return cfd.MustNew("mixed", x, y, rows)
}

// TestPropertyProposition5 checks Proposition 5 on random instances
// and partitions: constant CFDs are fully checked by the union of
// local checks, with zero shipment, for every partitioning.
func TestPropertyProposition5(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		d := randomRelation(rng, 50)
		// Random constant CFD.
		lhs := []string{"a", "b"}
		pats := []cfd.PatternTuple{}
		for p := 0; p < 1+rng.Intn(3); p++ {
			pats = append(pats, cfd.PatternTuple{
				LHS: []string{fmt.Sprintf("a%d", rng.Intn(3)), cfd.Wildcard},
				RHS: []string{fmt.Sprintf("c%d", rng.Intn(2))},
			})
		}
		c := cfd.MustNew("const", lhs, []string{"c"}, pats)
		h, err := partition.Uniform(d, 1+rng.Intn(4), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
			res, err := detectOne(context.Background(), cl, c, algo, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.ShippedTuples != 0 || !res.LocalOnly {
				t.Fatalf("trial %d %v: constant CFD shipped %d tuples", trial, algo, res.ShippedTuples)
			}
			vio, err := cfd.NaiveViolations(d, c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSet(patternsOf(res.Patterns), oraclePatterns(t, d, c, vio)) {
				t.Fatalf("trial %d %v: constant CFD wrong answer", trial, algo)
			}
		}
	}
}

// TestPropertyDetectionPartitionInvariant: the violation patterns a
// run produces are independent of how the data is partitioned and of
// the algorithm — only shipment and timing may differ.
func TestPropertyDetectionPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 12; trial++ {
		d := randomRelation(rng, 70)
		c := randomTestCFD(rng)
		var reference map[string]bool
		for _, n := range []int{1, 2, 5} {
			h, err := partition.Uniform(d, n, int64(trial*10+n))
			if err != nil {
				t.Fatal(err)
			}
			cl, err := FromHorizontal(h)
			if err != nil {
				t.Fatal(err)
			}
			res, err := detectOne(context.Background(), cl, c, PatDetectRT, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := patternsOf(res.Patterns)
			if reference == nil {
				reference = got
			} else if !sameSet(got, reference) {
				t.Fatalf("trial %d: answer depends on partitioning (%d sites)", trial, n)
			}
		}
	}
}

// TestPropertyCheckSizesConsistent: Σ_i received(i) = shipped, and
// coordinators' check sizes account for every received tuple.
func TestPropertyCheckSizesConsistent(t *testing.T) {
	f := func(seed int64, sites uint8) bool {
		n := int(sites%5) + 2
		rng := rand.New(rand.NewSource(seed))
		d := randomRelation(rng, 60)
		h, err := partition.Uniform(d, n, seed)
		if err != nil {
			return false
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			return false
		}
		res, err := detectOne(context.Background(), cl, randomTestCFD(rng), PatDetectS, Options{})
		if err != nil {
			return false
		}
		var received int64
		for _, row := range res.Shipment.Tuples {
			for _, n := range row {
				received += n
			}
		}
		return received == res.ShippedTuples
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
