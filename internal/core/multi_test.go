package core

import (
	"context"
	"math/rand"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
)

func TestClusterByLHS(t *testing.T) {
	a := cfd.MustParse(`a: [CC, zip] -> [street]`)
	b := cfd.MustParse(`b: [CC] -> [city]`)          // X ⊂ a.X → merge
	c := cfd.MustParse(`c: [AC, phn] -> [street]`)   // unrelated
	d := cfd.MustParse(`d: [CC, zip, AC] -> [city]`) // ⊇ a and b
	clusters := clusterByLHS([]*cfd.CFD{a, b, c, d})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v, want 2", clusters)
	}
	if len(clusters[0]) != 3 || len(clusters[1]) != 1 {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestSharedLHSAndProjectedSpec(t *testing.T) {
	a := cfd.MustParse(`a: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)`)
	b := cfd.MustParse(`b: [CC] -> [city] : (01 || _)`)
	w := sharedLHS([]*cfd.CFD{a, b})
	if len(w) != 1 || w[0] != "CC" {
		t.Fatalf("W = %v, want [CC]", w)
	}
	spec, err := projectedSpec(w, []*cfd.CFD{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Projections: (44), (31), (01) — three distinct constants.
	if spec.K() != 3 {
		t.Errorf("projected spec K = %d, patterns %v", spec.K(), spec.Patterns)
	}
}

func TestSeqAndClustAgreeWithOracle(t *testing.T) {
	cl := fig1bCluster(t)
	cfds := []*cfd.CFD{phi1, phi2, phi3}

	seq, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{Workers: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	// φ1 and φ3 share LHS prefix CC? X(φ1)={CC,zip}, X(φ3)={CC,AC}:
	// no containment; φ2 X={CC,title}: no containment either. So the
	// Fig.1 rules don't cluster — results must still match.
	wantPatterns(t, "seq phi1", seq.PerCFD[0], "44\x1fEH4 8LE", "31\x1f1012 WR")
	wantPatterns(t, "clust phi1", clu.PerCFD[0], "44\x1fEH4 8LE", "31\x1f1012 WR")
	if seq.PerCFD[1].Len() != 0 || clu.PerCFD[1].Len() != 0 {
		t.Error("phi2 should have no violations")
	}
	wantPatterns(t, "seq phi3", seq.PerCFD[2], "44\x1f131", "01\x1f908")
	wantPatterns(t, "clust phi3", clu.PerCFD[2], "44\x1f131", "01\x1f908")
}

// overlappingCFDs returns a pair with LHS containment, the Exp-5 setup.
func overlappingCFDs() []*cfd.CFD {
	c1 := cfd.MustParse(`c1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)`)
	c2 := cfd.MustParse(`c2: [CC] -> [AC] : (44 || _), (01 || _), (31 || _)`)
	return []*cfd.CFD{c1, c2}
}

func TestClustDetectClustersOverlappingCFDs(t *testing.T) {
	cl := fig1bCluster(t)
	cfds := overlappingCFDs()
	res, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0]) != 2 {
		t.Fatalf("clusters = %v, want one cluster of both", res.Clusters)
	}
}

// TestClustShipsNoMoreThanSeq: for overlapping CFDs, the clustered strategy ships
// each tuple once per cluster instead of once per CFD.
func TestClustShipsNoMoreThanSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfds := []*cfd.CFD{
		cfd.MustParse(`m1: [a, b] -> [c]`),
		cfd.MustParse(`m2: [a] -> [d] : (a0 || _), (a1 || _), (a2 || _)`),
	}
	for trial := 0; trial < 10; trial++ {
		d := randomRelation(rng, 100)
		h, err := partition.Uniform(d, 4, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{Workers: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		clu, err := DetectOnce(context.Background(), cl, cfds, PatDetectS, Options{Workers: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		if clu.ShippedTuples > seq.ShippedTuples {
			t.Errorf("trial %d: clust shipped %d > seq %d", trial,
				clu.ShippedTuples, seq.ShippedTuples)
		}
		// And both agree with the oracle.
		for ci, c := range cfds {
			vio, err := cfd.NaiveViolations(d, c)
			if err != nil {
				t.Fatal(err)
			}
			want := oraclePatterns(t, d, c, vio)
			if !sameSet(patternsOf(seq.PerCFD[ci]), want) {
				t.Errorf("trial %d: seq cfd %d mismatch", trial, ci)
			}
			if !sameSet(patternsOf(clu.PerCFD[ci]), want) {
				t.Errorf("trial %d: clust cfd %d mismatch:\n got %v\nwant %v",
					trial, ci, keys(patternsOf(clu.PerCFD[ci])), keys(want))
			}
		}
	}
}

// TestClustRandomizedOracle drives the clustered strategy across random CFD sets,
// including non-clusterable mixes.
func TestClustRandomizedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		d := randomRelation(rng, 60)
		var cfds []*cfd.CFD
		for i := 0; i < 2+rng.Intn(3); i++ {
			c := randomTestCFD(rng)
			c.Name = c.Name + itoa(i)
			cfds = append(cfds, c)
		}
		h, err := partition.Uniform(d, 3, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{PatDetectS, PatDetectRT} {
			clu, err := DetectOnce(context.Background(), cl, cfds, algo, Options{Workers: 1}, true)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for ci, c := range cfds {
				vio, err := cfd.NaiveViolations(d, c)
				if err != nil {
					t.Fatal(err)
				}
				want := oraclePatterns(t, d, c, vio)
				if !sameSet(patternsOf(clu.PerCFD[ci]), want) {
					t.Fatalf("trial %d algo %v cfd %d (%v):\n got %v\nwant %v",
						trial, algo, ci, c, keys(patternsOf(clu.PerCFD[ci])), keys(want))
				}
			}
		}
	}
}

func TestSeqDetectEmptyInput(t *testing.T) {
	cl := fig1bCluster(t)
	if _, err := DetectOnce(context.Background(), cl, nil, PatDetectS, Options{Workers: 1}, false); err == nil {
		t.Error("expected error for empty CFD set")
	}
	if _, err := DetectOnce(context.Background(), cl, nil, PatDetectS, Options{Workers: 1}, true); err == nil {
		t.Error("expected error for empty CFD set")
	}
}

func TestSetResultBookkeeping(t *testing.T) {
	cl := fig1bCluster(t)
	cfds := overlappingCFDs()
	for _, run := range []func() (*Result, error){
		func() (*Result, error) {
			return DetectOnce(context.Background(), cl, cfds, PatDetectRT, Options{Workers: 1}, false)
		},
		func() (*Result, error) {
			return DetectOnce(context.Background(), cl, cfds, PatDetectRT, Options{Workers: 1}, true)
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.ModeledTime <= 0 || res.WallTime <= 0 {
			t.Error("times should be positive")
		}
		if res.ShippedTuples != res.Shipment.TotalTuples {
			t.Error("shipped tuples mismatch with metrics")
		}
		if len(res.PerCFD) != len(cfds) {
			t.Errorf("PerCFD = %d, want %d", len(res.PerCFD), len(cfds))
		}
	}
}
