package core

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

// TestExample5CTRDetect replays Example 5: for φ1 over the Fig. 1(b)
// partition, CTRDetect picks S2 (our site 1) as coordinator — DH2 has
// four matching tuples — and ships exactly four tuples (t2, t9, t10
// from S1 and t5 from S3).
func TestExample5CTRDetect(t *testing.T) {
	cl := fig1bCluster(t)
	res, err := detectOne(context.Background(), cl, phi1, CTRDetect, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for l, c := range res.Coordinators {
		if c != 1 {
			t.Errorf("block %d coordinator = %d, want 1 (S2)", l, c)
		}
	}
	if res.ShippedTuples != 4 {
		t.Errorf("shipped %d tuples, want 4", res.ShippedTuples)
	}
	wantPatterns(t, "phi1 CTR", res.Patterns, "44\x1fEH4 8LE", "31\x1f1012 WR")
}

// TestExample6PatDetectS replays Example 6: per-pattern coordinators
// are S2 for (44, _) and S1 for (31, _); total shipment drops to 3.
func TestExample6PatDetectS(t *testing.T) {
	cl := fig1bCluster(t)
	res, err := detectOne(context.Background(), cl, phi1, PatDetectS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec == nil || res.Spec.K() != 2 {
		t.Fatalf("spec = %v", res.Spec)
	}
	// Identify which block is the 44 pattern.
	block44, block31 := -1, -1
	for l, p := range res.Spec.Patterns {
		switch p[0] {
		case "44":
			block44 = l
		case "31":
			block31 = l
		}
	}
	if block44 < 0 || block31 < 0 {
		t.Fatalf("patterns = %v", res.Spec.Patterns)
	}
	if res.Coordinators[block44] != 1 {
		t.Errorf("coordinator for (44,_) = %d, want 1 (S2)", res.Coordinators[block44])
	}
	if res.Coordinators[block31] != 0 {
		t.Errorf("coordinator for (31,_) = %d, want 0 (S1)", res.Coordinators[block31])
	}
	if res.ShippedTuples != 3 {
		t.Errorf("shipped %d tuples, want 3", res.ShippedTuples)
	}
	wantPatterns(t, "phi1 PatS", res.Patterns, "44\x1fEH4 8LE", "31\x1f1012 WR")
}

// TestExample4ConstantLocal replays Example 4 / Proposition 5: the
// constant CFD φ3 is checked locally with zero shipment; violations
// are the patterns of t2, t3 (ψ1) and t6 (ψ2).
func TestExample4ConstantLocal(t *testing.T) {
	cl := fig1bCluster(t)
	for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
		res, err := detectOne(context.Background(), cl, phi3, algo, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.LocalOnly {
			t.Errorf("%v: constant CFD should be local-only", algo)
		}
		if res.ShippedTuples != 0 {
			t.Errorf("%v: shipped %d tuples, want 0", algo, res.ShippedTuples)
		}
		wantPatterns(t, "phi3 "+algo.String(), res.Patterns, "44\x1f131", "01\x1f908")
	}
}

// TestPhi2FDSatisfied: D0 satisfies the FD φ2; all algorithms must
// report no violations on any partitioning.
func TestPhi2FDSatisfied(t *testing.T) {
	for _, mk := range []func() *Cluster{
		func() *Cluster { return fig1bCluster(t) },
		func() *Cluster { return uniformCluster(t, 4, 11) },
	} {
		cl := mk()
		for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
			res, err := detectOne(context.Background(), cl, phi2, algo, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Patterns.Len() != 0 {
				t.Errorf("%v: φ2 violations = %v, want none", algo, res.Patterns)
			}
		}
	}
}

// TestAllAlgorithmsAgreeWithOracle is the central correctness test:
// on randomized data, partitions and CFDs, every algorithm must return
// exactly the centralized Vioπ patterns.
func TestAllAlgorithmsAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		d := randomRelation(rng, 30+rng.Intn(60))
		c := randomTestCFD(rng)
		n := 2 + rng.Intn(4)
		h, err := partition.Uniform(d, n, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		// Centralized oracle.
		vio, err := cfd.NaiveViolations(d, c)
		if err != nil {
			t.Fatal(err)
		}
		want := oraclePatterns(t, d, c, vio)
		for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
			res, err := detectOne(context.Background(), cl, c, algo, Options{})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, algo, err)
			}
			got := patternsOf(res.Patterns)
			if !sameSet(got, want) {
				t.Fatalf("trial %d %v:\n got %v\nwant %v\ncfd %v", trial, algo, keys(got), keys(want), c)
			}
		}
	}
}

func oraclePatterns(t *testing.T, d *relation.Relation, c *cfd.CFD, vio []int) map[string]bool {
	t.Helper()
	xi, err := d.Schema().Indices(c.X)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, i := range vio {
		// Same join as patternsOf: fixtures are separator-free.
		out[strings.Join(d.Tuple(i).Project(xi), "\x1f")] = true
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestShipOnceInvariant checks the paper's guarantee that each tuple
// (attribute projection) is shipped at most once per CFD: total
// shipment equals the matching tuples held away from their block's
// coordinator.
func TestShipOnceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		d := randomRelation(rng, 80)
		c := randomTestCFD(rng)
		view, ok := c.VariableView()
		if !ok {
			continue
		}
		h, err := partition.Uniform(d, 3, int64(trial))
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
			spec, err := SpecFromCFD(view)
			if err != nil {
				t.Fatal(err)
			}
			var expect int64
			for i := 0; i < cl.N(); i++ {
				site := cl.Site(i).(*Site)
				stats, err := site.SigmaStats(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				for l, cnt := range stats {
					if res.Coordinators[l] >= 0 && res.Coordinators[l] != i {
						expect += int64(cnt)
					}
				}
			}
			if res.ShippedTuples != expect {
				t.Errorf("%v: shipped %d, expected exactly %d (each matching tuple once)",
					algo, res.ShippedTuples, expect)
			}
		}
	}
}

// TestPatShipmentNeverWorseThanCTR: PatDetectS minimizes shipment per
// pattern, so its total shipment is ≤ CTRDetect's on any instance.
func TestPatShipmentNeverWorseThanCTR(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 15; trial++ {
		d := randomRelation(rng, 100)
		c := randomTestCFD(rng)
		h, err := partition.Uniform(d, 4, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		ctr, err := detectOne(context.Background(), cl, c, CTRDetect, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pats, err := detectOne(context.Background(), cl, c, PatDetectS, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pats.ShippedTuples > ctr.ShippedTuples {
			t.Errorf("trial %d: PatDetectS shipped %d > CTRDetect %d",
				trial, pats.ShippedTuples, ctr.ShippedTuples)
		}
	}
}

// TestPredicatePruningAvoidsShipment: partitioning by CC co-locates
// every CFD pattern group of φ1, so nothing ships, and the fragment
// predicates prove it without touching statistics of pruned sites.
func TestPredicatePruningAvoidsShipment(t *testing.T) {
	d := empD0()
	h, err := partition.ByAttribute(d, "CC")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	res, err := detectOne(context.Background(), cl, phi1, PatDetectS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShippedTuples != 0 {
		t.Errorf("shipped %d tuples, want 0 (groups co-located)", res.ShippedTuples)
	}
	wantPatterns(t, "phi1 by-CC", res.Patterns, "44\x1fEH4 8LE", "31\x1f1012 WR")

	// Pruning matrix: the CC=01 fragment is pruned for both patterns.
	spec, err := SpecFromCFD(phi1)
	if err != nil {
		t.Fatal(err)
	}
	prunedSite, _ := pruneMatrix(cl.preds, spec)
	cc01 := -1
	for i, p := range cl.preds {
		if strings.Contains(p.String(), "CC = 01") {
			cc01 = i
		}
	}
	if cc01 < 0 {
		t.Fatal("no CC=01 fragment found")
	}
	if !prunedSite[cc01] {
		t.Error("CC=01 site should be fully pruned for phi1")
	}
}

// TestMiningReducesShipment: an FD over skewed, site-correlated data
// ships dramatically less with mining enabled (Exp-4's effect).
func TestMiningReducesShipment(t *testing.T) {
	// Data: attribute "a" is highly skewed and correlated with the
	// fragment, so mined patterns keep blocks local.
	s := relation.MustSchema("R", []string{"id", "a", "b"}, "id")
	d := relation.New(s)
	id := 0
	for frag := 0; frag < 4; frag++ {
		for i := 0; i < 100; i++ {
			d.MustAppend(relation.Tuple{
				itoa(id),
				"v" + itoa(frag), // dominant value per future fragment
				"w" + itoa(id%5),
			})
			id++
		}
	}
	// Partition by a: each fragment holds one dominant value.
	h, err := partition.ByAttribute(d, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Drop predicates to isolate the mining effect from pruning.
	h.Predicates = nil
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	fd := cfd.MustParse(`fd: [a] -> [b]`)

	plain, err := detectOne(context.Background(), cl, fd, PatDetectS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := detectOne(context.Background(), cl, fd, PatDetectS, Options{MineTheta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if mined.MinedPatterns == 0 {
		t.Fatal("expected mined patterns at theta=0.5 on constant-per-fragment data")
	}
	if mined.ShippedTuples >= plain.ShippedTuples {
		t.Errorf("mining did not reduce shipment: %d >= %d", mined.ShippedTuples, plain.ShippedTuples)
	}
	if mined.ShippedTuples != 0 {
		t.Errorf("perfectly correlated fragments should ship 0 with mining, got %d", mined.ShippedTuples)
	}
	// Same answers.
	if !sameSet(patternsOf(plain.Patterns), patternsOf(mined.Patterns)) {
		t.Error("mining changed the violation set")
	}
}

// TestMiningPreservesCorrectness on random data: mining must never
// change the detected violation patterns.
func TestMiningPreservesCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fd := cfd.MustParse(`fd: [a, b] -> [c]`)
	for trial := 0; trial < 8; trial++ {
		d := randomRelation(rng, 120)
		h, err := partition.Uniform(d, 3, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := detectOne(context.Background(), cl, fd, PatDetectS, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, theta := range []float64{0.05, 0.2, 0.8} {
			mined, err := detectOne(context.Background(), cl, fd, PatDetectS, Options{MineTheta: theta})
			if err != nil {
				t.Fatal(err)
			}
			if !sameSet(patternsOf(plain.Patterns), patternsOf(mined.Patterns)) {
				t.Errorf("trial %d theta %v: mining changed violations", trial, theta)
			}
		}
	}
}

// TestSingleSiteCluster: with one site everything is local.
func TestSingleSiteCluster(t *testing.T) {
	cl := uniformCluster(t, 1, -1)
	res, err := detectOne(context.Background(), cl, phi1, PatDetectRT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShippedTuples != 0 {
		t.Errorf("single site shipped %d tuples", res.ShippedTuples)
	}
	wantPatterns(t, "phi1 single-site", res.Patterns, "44\x1fEH4 8LE", "31\x1f1012 WR")
}

// TestResultBookkeeping sanity-checks the auxiliary result fields.
func TestResultBookkeeping(t *testing.T) {
	cl := fig1bCluster(t)
	res, err := detectOne(context.Background(), cl, phi1, PatDetectRT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeledTime <= 0 {
		t.Error("modeled time should be positive")
	}
	if res.WallTime <= 0 {
		t.Error("wall time should be positive")
	}
	if len(res.CheckSizes) != cl.N() {
		t.Errorf("check sizes = %v", res.CheckSizes)
	}
	total := 0
	for i, cs := range res.CheckSizes {
		frag, _ := cl.Site(i).NumTuples()
		if cs < frag {
			t.Errorf("check size %d < fragment size %d", cs, frag)
		}
		total += cs - frag
	}
	if int64(total) != res.ShippedTuples {
		t.Errorf("received total %d != shipped %d", total, res.ShippedTuples)
	}
}

// TestDetectSingleValidation rejects CFDs off-schema.
func TestDetectSingleValidation(t *testing.T) {
	cl := fig1bCluster(t)
	bad := cfd.MustParse(`[missing] -> [city]`)
	if _, err := detectOne(context.Background(), cl, bad, PatDetectS, Options{}); err == nil {
		t.Error("expected schema validation error")
	}
}

func itoa(i int) string { return strconv.Itoa(i) }
