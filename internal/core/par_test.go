package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

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

// TestIntraUnitParallelIdentical pins the sites' row sharding: on a
// single merged cluster (every CFD's LHS related by containment, so the
// plan has exactly one unit) over fragments large enough to row-shard,
// a Detect whose sites check with a shard budget of 2 or 4 is
// byte-identical to the run whose sites check serially.
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
	p, err := CompileSet(context.Background(), cl, cfds, PatDetectRT, Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) != 1 {
		t.Fatalf("want one merged cluster, got %v", p.clusters)
	}
	detectAt := func(budget int) *Result {
		for i := 0; i < cl.N(); i++ {
			cl.Site(i).(*Site).SetDetectParallelism(budget)
		}
		res, err := p.Detect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := detectAt(1)
	for _, budget := range []int{2, 4} {
		par := detectAt(budget)
		for ci := range cfds {
			if !identicalRelations(par.PerCFD[ci], serial.PerCFD[ci]) {
				t.Fatalf("budget %d cfd %d: sharded != serial", budget, ci)
			}
		}
		if par.ShippedTuples != serial.ShippedTuples || par.ModeledTime != serial.ModeledTime {
			t.Fatalf("budget %d: accounting diverged (%d/%v vs %d/%v)", budget,
				par.ShippedTuples, par.ModeledTime, serial.ShippedTuples, serial.ModeledTime)
		}
	}
}

// TestSiteOwnsDetectParallelism: a site is built with this machine's
// cores as its row-shard budget; nothing downstream has to set it.
func TestSiteOwnsDetectParallelism(t *testing.T) {
	s := NewSite(0, relation.New(relation.MustSchema("R", []string{"a"})), relation.True())
	if got, want := s.DetectParallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("NewSite budget %d, want GOMAXPROCS %d", got, want)
	}
}

// barrierSite announces every FoldDetect call on arrive and holds it
// until the test closes release, or fails it after a timeout.
type barrierSite struct {
	SiteAPI
	arrive  chan struct{}
	release chan struct{}
}

func (b *barrierSite) FoldDetect(ctx context.Context, args FoldArgs) (*FoldReply, error) {
	b.arrive <- struct{}{}
	select {
	case <-b.release:
		return b.SiteAPI.FoldDetect(ctx, args)
	case <-time.After(5 * time.Second):
		return nil, errors.New("FoldDetect held alone at the barrier: incremental units did not overlap")
	}
}

// TestIncrementalUnitsOverlap: an incremental round runs its units on
// the same bounded pool as a fresh Detect — each unit folds into its
// own session — so under Workers 2 two units' FoldDetect calls are in
// flight at once.
func TestIncrementalUnitsOverlap(t *testing.T) {
	d := relation.New(relation.MustSchema("R", []string{"a", "b", "c", "d"}))
	for i := 0; i < 40; i++ {
		d.MustAppend(relation.Tuple{"a" + itoa(i%5), "b" + itoa(i%3), "c" + itoa(i%7), "d" + itoa(i%2)})
	}
	cfds := []*cfd.CFD{cfd.MustParse(`o1: [a] -> [b]`), cfd.MustParse(`o2: [c] -> [d]`)}
	// One site: every block's coordinator is site 0, so each unit makes
	// exactly one FoldDetect call a round.
	b := &barrierSite{SiteAPI: NewSite(0, d, relation.True()), arrive: make(chan struct{}, 2), release: make(chan struct{})}
	cl, err := NewCluster(d.Schema(), []SiteAPI{b})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileSet(context.Background(), cl, cfds, PatDetectS, Options{Workers: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) != 2 {
		t.Fatalf("want two units, got %v", p.clusters)
	}
	go func() {
		<-b.arrive
		<-b.arrive
		close(b.release)
	}()
	res, err := p.DetectIncremental(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.release:
	default:
		t.Fatal("the round made fewer than two FoldDetect calls")
	}
	fresh, err := p.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range cfds {
		if !identicalRelations(res.PerCFD[ci], fresh.PerCFD[ci]) {
			t.Errorf("cfd %d: overlapped incremental round %v != fresh %v", ci, res.PerCFD[ci], fresh.PerCFD[ci])
		}
	}
}

// applyBarrierSite announces every ApplyDelta on arrive and holds it
// until the test closes release, or fails it after a timeout.
type applyBarrierSite struct {
	*Site
	arrive  chan struct{}
	release chan struct{}
}

func (b *applyBarrierSite) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (DeltaInfo, error) {
	b.arrive <- struct{}{}
	select {
	case <-b.release:
		return b.Site.ApplyDelta(ctx, d, nonce)
	case <-time.After(5 * time.Second):
		return DeltaInfo{}, errors.New("ApplyDelta held alone at the barrier: the sites' deltas were applied one at a time")
	}
}

// TestDetectDeltaAppliesConcurrently: DetectDelta applies its per-site
// deltas at every site at once, so all three sites' ApplyDelta calls
// are in flight together, and the round still equals a fresh Detect.
func TestDetectDeltaAppliesConcurrently(t *testing.T) {
	const n = 3
	arrive, release := make(chan struct{}, n), make(chan struct{})
	schema := relation.MustSchema("R", []string{"a", "b"})
	sites := make([]SiteAPI, n)
	deltas := make(map[int]relation.Delta, n)
	for i := range sites {
		frag := relation.New(schema)
		for k := 0; k < 10; k++ {
			frag.MustAppend(relation.Tuple{"a" + itoa(k%4), "b" + itoa((k+i)%3)})
		}
		sites[i] = &applyBarrierSite{Site: NewSite(i, frag, relation.True()), arrive: arrive, release: release}
		deltas[i] = relation.Delta{Inserts: []relation.Tuple{{"a9", "b" + itoa(i)}}, Deletes: []int{0}}
	}
	cl, err := NewCluster(schema, sites)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileSet(context.Background(), cl, []*cfd.CFD{cfd.MustParse(`d1: [a] -> [b]`)}, PatDetectS, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range n {
			<-arrive
		}
		close(release)
	}()
	res, err := p.DetectDelta(context.Background(), deltas)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !identicalRelations(res.PerCFD[0], fresh.PerCFD[0]) || res.PerCFD[0].Len() == 0 {
		t.Errorf("round after the concurrent apply %v, fresh %v", res.PerCFD[0], fresh.PerCFD[0])
	}
}
