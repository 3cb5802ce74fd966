package core

import (
	"context"
	"math/rand"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

// identicalRelations reports whether two pattern relations are
// byte-identical: same tuples in the same order.
func identicalRelations(a, b *relation.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, t := range a.Tuples() {
		if !t.Equal(b.Tuple(i)) {
			return false
		}
	}
	return true
}

// TestParDetectIdenticalToSeqAndClust: on random relations, random CFD
// sets, and random partitionings, the violation sets of a clustered
// plan run across a worker pool are byte-identical (tuples and order)
// to the serial sequential and serial clustered runs', and its
// shipment/time accounting equals the serial clustered run's.
func TestParDetectIdenticalToSeqAndClust(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 12; trial++ {
		d := randomRelation(rng, 80)
		var cfds []*cfd.CFD
		for i := 0; i < 2+rng.Intn(4); i++ {
			c := randomTestCFD(rng)
			c.Name = c.Name + itoa(i)
			cfds = append(cfds, c)
		}
		h, err := partition.Uniform(d, 2+rng.Intn(3), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			seq, err := DetectOnce(context.Background(), cl, cfds, PatDetectRT, Options{Workers: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			clu, err := DetectOnce(context.Background(), cl, cfds, PatDetectRT, Options{Workers: 1}, true)
			if err != nil {
				t.Fatal(err)
			}
			par, err := DetectOnce(context.Background(), cl, cfds, PatDetectRT, Options{Workers: workers}, true)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			for ci := range cfds {
				if !identicalRelations(par.PerCFD[ci], seq.PerCFD[ci]) {
					t.Fatalf("trial %d workers %d cfd %d: parallel != sequential\n par %v\n seq %v",
						trial, workers, ci, par.PerCFD[ci], seq.PerCFD[ci])
				}
				if !identicalRelations(par.PerCFD[ci], clu.PerCFD[ci]) {
					t.Fatalf("trial %d workers %d cfd %d: parallel != serial clustered",
						trial, workers, ci)
				}
			}
			if par.ShippedTuples != clu.ShippedTuples {
				t.Errorf("trial %d workers %d: shipment %d != serial clustered %d",
					trial, workers, par.ShippedTuples, clu.ShippedTuples)
			}
			if par.ModeledTime != clu.ModeledTime {
				t.Errorf("trial %d workers %d: modeled %v != serial clustered %v",
					trial, workers, par.ModeledTime, clu.ModeledTime)
			}
			if len(par.Clusters) != len(clu.Clusters) {
				t.Errorf("trial %d: cluster structure differs", trial)
			}
		}
	}
}

func TestParDetectBookkeeping(t *testing.T) {
	cl := fig1bCluster(t)
	cfds := []*cfd.CFD{phi1, phi2, phi3}
	res, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeledTime <= 0 || res.WallTime <= 0 {
		t.Error("times should be positive")
	}
	if res.ShippedTuples != res.Shipment.TotalTuples {
		t.Error("shipped tuples mismatch with metrics")
	}
	wantPatterns(t, "par phi1", res.PerCFD[0], "44\x1fEH4 8LE", "31\x1f1012 WR")
	wantPatterns(t, "par phi3", res.PerCFD[2], "44\x1f131", "01\x1f908")
	if res.PerCFD[1].Len() != 0 {
		t.Error("phi2 should have no violations")
	}
}

func TestParDetectEmptyInput(t *testing.T) {
	cl := fig1bCluster(t)
	if _, err := DetectOnce(context.Background(), cl, nil, PatDetectS, Options{}, true); err == nil {
		t.Error("expected error for empty CFD set")
	}
}

// TestParDetectManyIndependentCFDs exercises the worker pool with more
// clusters than workers: ten disjoint-LHS CFDs over one cluster.
func TestParDetectManyIndependentCFDs(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	d := randomRelation(rng, 120)
	h, err := partition.Uniform(d, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint single-attribute LHSs: a→b, b→c, c→d, d→a cycle variants
	// never share containment, so every CFD is its own cluster.
	attrs := []string{"a", "b", "c", "d"}
	var cfds []*cfd.CFD
	for i := 0; i < 8; i++ {
		x := attrs[i%4]
		y := attrs[(i+1+i/4)%4]
		if x == y {
			y = attrs[(i+2)%4]
		}
		cfds = append(cfds, cfd.MustNew("fd"+itoa(i), []string{x}, []string{y}, []cfd.PatternTuple{
			{LHS: []string{cfd.Wildcard}, RHS: []string{cfd.Wildcard}},
		}))
	}
	seq, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{Workers: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{Workers: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range cfds {
		if !identicalRelations(par.PerCFD[ci], seq.PerCFD[ci]) {
			t.Fatalf("cfd %d: parallel result differs from sequential", ci)
		}
	}
}

// TestIntraUnitParallelIdentical pins the worker split's second level:
// on a single merged cluster (every CFD's LHS related by containment,
// so cluster-level parallelism has exactly one unit to work with) over
// fragments large enough to row-shard, a compiled Detect with a big
// worker budget — which all drops into intra-unit sharding — is
// byte-identical to the strictly serial run at several budgets.
func TestIntraUnitParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := relation.New(relation.MustSchema("BIG", []string{"a", "b", "c", "d"}))
	for i := 0; i < 12_000; i++ {
		d.MustAppend(relation.Tuple{
			"v" + itoa(rng.Intn(40)), "w" + itoa(rng.Intn(7)),
			"x" + itoa(rng.Intn(5)), "y" + itoa(rng.Intn(6)),
		})
	}
	cfds := []*cfd.CFD{
		cfd.MustParse(`b1: [a] -> [c]`),
		cfd.MustParse(`b2: [a, b] -> [d]`),
		cfd.MustParse(`b3: [a, b, c] -> [d] : (_, w1, _ || _)`),
	}
	h, err := partition.Uniform(d, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := DetectOnce(context.Background(), cl, cfds, PatDetectRT, Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Clusters) != 1 {
		t.Fatalf("want one merged cluster, got %v", serial.Clusters)
	}
	for _, workers := range []int{2, 4, 8} {
		p, err := CompileSet(context.Background(), cl, cfds, PatDetectRT, Options{Workers: workers}, true)
		if err != nil {
			t.Fatal(err)
		}
		par, err := p.Detect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for ci := range cfds {
			if !identicalRelations(par.PerCFD[ci], serial.PerCFD[ci]) {
				t.Fatalf("workers %d cfd %d: intra-parallel != serial", workers, ci)
			}
		}
		if par.ShippedTuples != serial.ShippedTuples || par.ModeledTime != serial.ModeledTime {
			t.Fatalf("workers %d: accounting diverged (%d/%v vs %d/%v)", workers,
				par.ShippedTuples, par.ModeledTime, serial.ShippedTuples, serial.ModeledTime)
		}
	}
}
