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
// Vioπ(φ, D) = ∪_l Vioπ(φ_l, ∪_i H_i^l) — detecting each σ-block
// independently with its restricted CFD loses nothing and adds
// nothing, for any partitioning of D.
func TestPropertyLemma6(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		d := randomRelation(rng, 40)
		c := randomTestCFD(rng)
		view, ok := c.VariableView()
		if !ok {
			continue
		}
		spec, err := SpecFromCFD(view)
		if err != nil {
			t.Fatal(err)
		}
		// Whole-relation patterns for the variable view.
		whole, err := engine.ViolationPatterns(d, view)
		if err != nil {
			t.Fatal(err)
		}
		// Block-wise union.
		assign, _, err := spec.AssignAll(d)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for l := 0; l < spec.K(); l++ {
			block := relation.New(d.Schema())
			for i, t := range d.Tuples() {
				if assign[i] == l {
					block.MustAppend(t)
				}
			}
			restricted := spec.RestrictCFD(view, l)
			pats, err := engine.ViolationPatterns(block, restricted)
			if err != nil {
				t.Fatal(err)
			}
			idx := make([]int, pats.Schema().Arity())
			for i := range idx {
				idx[i] = i
			}
			for _, p := range pats.Tuples() {
				got[p.Key(idx)] = true
			}
		}
		want := map[string]bool{}
		idx := make([]int, whole.Schema().Arity())
		for i := range idx {
			idx[i] = i
		}
		for _, p := range whole.Tuples() {
			want[p.Key(idx)] = true
		}
		if !sameSet(got, want) {
			t.Fatalf("trial %d: Lemma 6 broken\n got %v\nwant %v\ncfd %v",
				trial, keys(got), keys(want), view)
		}
	}
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
