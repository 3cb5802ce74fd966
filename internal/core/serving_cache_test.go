package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// TestFingerprintUnambiguous pins that the σ-cache key cannot collide
// for specs whose values contain separator-like bytes — 0x1f-adjacent
// data is in scope since the columnar-encoding work.
func TestFingerprintUnambiguous(t *testing.T) {
	mk := func(x []string, pats [][]string) *BlockSpec {
		spec, err := NewBlockSpecOrdered(x, pats)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	pairs := [][2]*BlockSpec{
		{
			mk([]string{"a", "b"}, [][]string{{"x\x1fy", "z"}}),
			mk([]string{"a", "b"}, [][]string{{"x", "y\x1fz"}}),
		},
		{
			mk([]string{"a"}, [][]string{{"p\x1e"}, {"q"}}),
			mk([]string{"a"}, [][]string{{"p"}, {"\x1eq"}}),
		},
		{
			mk([]string{"ab"}, [][]string{{"c"}}),
			mk([]string{"a"}, [][]string{{"bc"}}),
		},
	}
	for i, p := range pairs {
		if p[0].Fingerprint() == p[1].Fingerprint() {
			t.Errorf("pair %d: distinct specs share a fingerprint %q", i, p[0].Fingerprint())
		}
	}
	// And stability: same content, independent spec values, same key —
	// that is what gives wire-decoded specs their cache hits.
	a := mk([]string{"a", "b"}, [][]string{{"x", "y"}, {"x", cfd.Wildcard}})
	b := mk([]string{"a", "b"}, [][]string{{"x", "y"}, {"x", cfd.Wildcard}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal-content specs must share a fingerprint")
	}
}

// TestConstantsCacheKeyUnambiguous: two different CFDs whose String()
// renderings collide (", "-joined values) must not share a
// constants-cache entry.
func TestConstantsCacheKeyUnambiguous(t *testing.T) {
	s := relation.MustSchema("T", []string{"a", "b", "c"})
	frag := relation.MustFromRows(s,
		[]string{"u, v", "w", "1"},
		[]string{"u", "v, w", "2"},
	)
	site := NewSite(0, frag, relation.True())
	// Constant units keyed on ambiguous constants: c1 matches row 1,
	// c2 matches row 2; both violate their required RHS.
	c1 := cfd.MustNew("k", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
		{LHS: []string{"u, v", "w"}, RHS: []string{"ZZZ"}},
	})
	c2 := cfd.MustNew("k", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{
		{LHS: []string{"u", "v, w"}, RHS: []string{"ZZZ"}},
	})
	if c1.String() != c2.String() {
		t.Skip("cfd.String became unambiguous; cache-key collision no longer reproducible this way")
	}
	ctx := context.Background()
	p1, err := site.DetectConstantsLocal(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := site.DetectConstantsLocal(ctx, c2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Len() != 1 || p2.Len() != 1 {
		t.Fatalf("each rule should flag its own row: got %d and %d", p1.Len(), p2.Len())
	}
	if p1.Tuple(0).Equal(p2.Tuple(0)) {
		t.Errorf("distinct CFDs served the same cached constants result %v", p1.Tuple(0))
	}
}

// parkedFrag holds the first σ-routing or constant-state projection it
// serves until release closes: the rows are read, then the result is
// held while a delta lands.
type parkedFrag struct {
	memFrag
	once            sync.Once
	parked, release chan struct{}
}

func (f *parkedFrag) park() {
	f.once.Do(func() {
		close(f.parked)
		<-f.release
	})
}

func (f *parkedFrag) GatherBlocks(m *relation.Merge, name string, attrs []string, blocks [][]int32, deps [][]*relation.Relation) ([]*relation.Relation, error) {
	out, err := f.memFrag.GatherBlocks(m, name, attrs, blocks, deps)
	f.park()
	return out, err
}

// TestServingCacheSkipsBuildAcrossDelta: a cache miss built from the
// rows before a delta and handed back after ApplyDelta rolled the cache
// forward must not be stored — else the next call serves pre-delta
// counts and constant violations, and ExtractMatching indexes past the
// routing's end.
func TestServingCacheSkipsBuildAcrossDelta(t *testing.T) {
	ctx := context.Background()
	schema := relation.MustSchema("T", []string{"a", "c"})
	c := cfd.MustParse(`k: [a] -> [c] : (x || ZZZ), (z || ZZZ)`)
	spec, err := SpecFromCFD(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []string{"sigma", "constants"} {
		t.Run(build, func(t *testing.T) {
			pf := &parkedFrag{
				memFrag: memFrag{r: relation.MustFromRows(schema, []string{"x", "m"}, []string{"y", "n"})},
				parked:  make(chan struct{}),
				release: make(chan struct{}),
			}
			s := newSiteWith(0, pf, relation.True())
			done := make(chan error, 1)
			go func() {
				var err error
				if build == "sigma" {
					_, err = s.SigmaStats(ctx, spec)
				} else {
					_, err = s.DetectConstantsLocal(ctx, c)
				}
				done <- err
			}()
			<-pf.parked
			if _, err := s.ApplyDelta(ctx, relation.Delta{Inserts: []relation.Tuple{{"z", "q"}}}, ""); err != nil {
				t.Fatal(err)
			}
			close(pf.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			fresh := NewSite(0, pf.r, relation.True())
			gotN, err := s.SigmaStats(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			wantN, err := fresh.SigmaStats(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gotN) != fmt.Sprint(wantN) {
				t.Errorf("SigmaStats %v, a fresh site %v", gotN, wantN)
			}
			gotM, err := s.ExtractMatching(ctx, spec, []string{"a", "c"})
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := fresh.ExtractMatching(ctx, spec, []string{"a", "c"})
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, "ExtractMatching", gotM, wantM)
			gotC, err := s.DetectConstantsLocal(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			wantC, err := fresh.DetectConstantsLocal(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, "DetectConstantsLocal", gotC, wantC)
		})
	}
}

// TestTaskKeysUniqueAcrossClusters: two Cluster instances over the
// same sites must never mint colliding task keys — a tombstone from a
// previous driver's cancelled run would otherwise silently swallow a
// new driver's deposits.
func TestTaskKeysUniqueAcrossClusters(t *testing.T) {
	s := relation.MustSchema("T", []string{"a"})
	frag := relation.MustFromRows(s, []string{"1"})
	mkCluster := func() *Cluster {
		cl, err := NewCluster(s, []SiteAPI{NewSite(0, frag, relation.True())})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cl1, cl2 := mkCluster(), mkCluster()
	k1, k2 := cl1.newTask("blocks"), cl2.newTask("blocks")
	if k1 == k2 {
		t.Fatalf("distinct clusters minted the same task key %q", k1)
	}
	if !strings.HasPrefix(k1, "blocks-") {
		t.Errorf("task key %q lost its kind prefix", k1)
	}
	// The cross-driver tombstone scenario end to end: driver 1 cancels
	// its first task at a shared long-lived site; driver 2's first
	// deposit must still land.
	shared := NewSite(0, frag, relation.True())
	if err := shared.Cancel(k1); err != nil {
		t.Fatal(err)
	}
	if err := shared.Deposit(context.Background(), BlockTask(k2, 0), frag, ""); err != nil {
		t.Fatal(err)
	}
	if shared.PendingDeposits() != 1 {
		t.Error("second driver's deposit was swallowed by the first driver's tombstone")
	}
}
