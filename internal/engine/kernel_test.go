package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// randomRelation builds a CUST-shaped synthetic relation with small
// domains so groups, violations, and fold collisions are frequent.
func randomRelation(rng *rand.Rand, rows int) *relation.Relation {
	s := relation.MustSchema("K", []string{"a", "b", "c", "d", "e"})
	d := relation.New(s)
	doms := []int{7, 11, 3, 5, 9}
	for i := 0; i < rows; i++ {
		row := make(relation.Tuple, len(doms))
		for j, dom := range doms {
			row[j] = fmt.Sprintf("v%d", rng.Intn(dom))
		}
		d.MustAppend(row)
	}
	return d
}

func kernelTestCFDs() []*cfd.CFD {
	return []*cfd.CFD{
		cfd.MustParse(`k1: [a, b] -> [c]`),                     // pure FD, two-column fold
		cfd.MustParse(`k2: [a] -> [e] : (v1 || _), (v2 || _)`), // constant LHS patterns
		cfd.MustParse(`k3: [a, b, d] -> [e]`),                  // three-column fold
		cfd.MustParse(`k4: [b, c] -> [a] : (_, v0 || _)`),      // constant restriction
		cfd.MustParse(`k5: [a, b] -> [c] : (v1, v2 || v0)`),    // constant unit
		cfd.MustParse(`k6: [c] -> [d] : (v0 || v1), (_ || _)`), // constant and variable units
	}
}

// TestKernelParallelMatchesSerial pins the intra-unit parallel kernel
// against the serial one: identical violation indices and identical
// violation patterns at every worker count, on inputs large enough
// that the row range actually shards (minShardRows per shard).
func TestKernelParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{0, 1, 63, 64, 65, 1000, 3*minShardRows + 17} {
		d := randomRelation(rng, rows)
		for _, c := range kernelTestCFDs() {
			var serial Kernel
			want, err := serial.DetectSet(d, []*cfd.CFD{c}, Opts{Workers: 1})
			if err != nil {
				t.Fatalf("rows=%d %s: %v", rows, c.Name, err)
			}
			wantPats, err := serial.ViolationPatterns(d, c, Opts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 4, 8} {
				var k Kernel
				got, err := k.DetectSet(d, []*cfd.CFD{c}, Opts{Workers: w})
				if err != nil {
					t.Fatalf("rows=%d %s workers=%d: %v", rows, c.Name, w, err)
				}
				if !equalInts(got, want) {
					t.Fatalf("rows=%d %s workers=%d: violations %v != serial %v", rows, c.Name, w, got, want)
				}
				gotPats, err := k.ViolationPatterns(d, c, Opts{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !gotPats.SameTuples(wantPats) {
					t.Fatalf("rows=%d %s workers=%d: patterns diverge from serial", rows, c.Name, w)
				}
			}
		}
	}
}

// TestKernelScratchReuse runs many detections through one kernel so
// pooled scratch is exercised across units of different shapes and row
// counts, and cross-checks every answer against the row-path
// reference.
func TestKernelScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var k Kernel
	for trial := 0; trial < 30; trial++ {
		d := randomRelation(rng, 1+rng.Intn(400))
		for _, c := range kernelTestCFDs() {
			want, err := DetectRows(d, c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.DetectSet(d, []*cfd.CFD{c}, Opts{Workers: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, want) {
				t.Fatalf("trial %d %s: %v != rows-path %v", trial, c.Name, got, want)
			}
		}
	}
}

// TestKernelFailedRunReturnsScratch pins the pairing Kernel.check holds
// by construction: a run the scratch rejects (a CFD over an attribute
// the schema lacks) and a read that fails both put the scratch back, and
// back unbound. sync.Pool may drop a Put (the race detector drops one
// in four), hence the attempts.
func TestKernelFailedRunReturnsScratch(t *testing.T) {
	d := randomRelation(rand.New(rand.NewSource(3)), 50)
	bad := []*cfd.CFD{cfd.MustParse(`bad: [a, nope] -> [c]`)}
	readErr := errors.New("read failed")
	fails := map[string]func(k *Kernel) error{
		"run": func(k *Kernel) error {
			_, err := k.DetectSet(d, bad, Opts{})
			return err
		},
		"read": func(k *Kernel) error {
			return k.check(storage(d), d.Schema(), kernelTestCFDs(), Opts{}, func(*detectScratch) error { return readErr })
		},
	}
	for name, fail := range fails {
		var k Kernel
		var sc *detectScratch
		for attempt := 0; attempt < 32 && sc == nil; attempt++ {
			if err := fail(&k); err == nil {
				t.Fatalf("%s: the call was built to fail", name)
			}
			sc, _ = k.pool.Get().(*detectScratch)
		}
		if sc == nil {
			t.Fatalf("%s: a failed call never returned its scratch to the pool", name)
		}
		if sc.src.r != nil || sc.src.cols != nil {
			t.Errorf("%s: the pooled scratch still holds its source", name)
		}
		for _, x := range sc.xs {
			if x.ids != nil {
				t.Errorf("%s: the pooled scratch still holds a column window", name)
			}
		}
	}
}

// TestScratchShrinks pins the retention bound: a scratch inflated by a
// huge check drops its buffers when returned to the pool, so one
// outlier cannot pin memory in a long-lived compiled plan.
func TestScratchShrinks(t *testing.T) {
	sc := &detectScratch{
		pats:       make([]uint32, scratchShrinkRows+1),
		live:       make([]int, scratchShrinkRows+1),
		admit:      make([]uint64, scratchShrinkRows>>6+1),
		gids:       make([]uint32, scratchShrinkRows+1),
		state:      make([]uint8, scratchShrinkRows+1),
		first:      make([]uint32, scratchShrinkRows+1),
		rep:        make([]uint32, scratchShrinkRows+1),
		bits:       make([]uint64, scratchShrinkRows>>6+1),
		shardState: make([]uint8, scratchShrinkRows+1),
		shardFirst: make([]uint32, scratchShrinkRows+1),
		shardRep:   make([]uint32, scratchShrinkRows+1),
	}
	sc.shrink()
	if sc.gids != nil || sc.state != nil || sc.first != nil || sc.rep != nil || sc.bits != nil {
		t.Error("row/group buffers past the bound were retained")
	}
	if sc.pats != nil || sc.live != nil || sc.admit != nil {
		t.Error("tableau buffers past the bound were retained")
	}
	if sc.shardState != nil || sc.shardFirst != nil || sc.shardRep != nil {
		t.Error("shard buffers past the bound were retained")
	}

	// Each buffer is gated independently: a small-row run whose group
	// space blew up (sparse shared dictionary) must still shed the
	// group and shard buffers while keeping the row-sized ones.
	mixed := &detectScratch{
		gids:       make([]uint32, 128),
		state:      make([]uint8, scratchShrinkRows+1),
		first:      make([]uint32, scratchShrinkRows+1),
		rep:        make([]uint32, scratchShrinkRows+1),
		shardState: make([]uint8, scratchShrinkRows+1),
		shardFirst: make([]uint32, scratchShrinkRows+1),
		shardRep:   make([]uint32, scratchShrinkRows+1),
	}
	mixed.shrink()
	if mixed.gids == nil {
		t.Error("small row buffer was dropped")
	}
	if mixed.state != nil || mixed.rep != nil || mixed.shardState != nil || mixed.shardFirst != nil || mixed.shardRep != nil {
		t.Error("oversized group/shard buffers were retained")
	}

	small := &detectScratch{
		gids:  make([]uint32, 128),
		rep:   make([]uint32, 128),
		pats:  make([]uint32, 128),
		live:  make([]int, 128),
		admit: make([]uint64, 128),
	}
	small.shrink()
	if small.gids == nil || small.rep == nil || small.pats == nil || small.live == nil || small.admit == nil {
		t.Error("buffers under the bound were dropped")
	}
}

// TestViolationPatternsSeparatorExact pins the value-exact dedup of
// ViolationPatterns: two distinct X-patterns whose \x1f-joined string
// keys collide must both be reported (the seen-set keys on encoded
// column IDs, not joined strings).
func TestViolationPatternsSeparatorExact(t *testing.T) {
	d := relation.MustFromRows(
		relation.MustSchema("S", []string{"a", "b", "c"}),
		[]string{"x\x1fy", "z", "1"},
		[]string{"x\x1fy", "z", "2"},
		[]string{"x", "y\x1fz", "1"},
		[]string{"x", "y\x1fz", "2"},
	)
	c := cfd.MustParse(`sep: [a, b] -> [c]`)
	vio, err := detectOne(d, c, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(vio, []int{0, 1, 2, 3}) {
		t.Fatalf("DetectSet = %v, want all four rows", vio)
	}
	pats, err := ViolationPatterns(d, c)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustFromRows(pats.Schema(),
		[]string{"x\x1fy", "z"},
		[]string{"x", "y\x1fz"},
	)
	if !pats.SameTuples(want) {
		t.Fatalf("ViolationPatterns = %v, want both distinct patterns", pats)
	}
}
