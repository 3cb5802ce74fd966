package workload

import (
	"fmt"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/engine"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

var kern engine.Kernel

func TestEMPFixtures(t *testing.T) {
	d := EMPData()
	if d.Len() != 10 {
		t.Fatalf("EMP has %d tuples", d.Len())
	}
	cfds := EMPCFDs()
	if len(cfds) != 3 {
		t.Fatalf("EMP CFDs = %d", len(cfds))
	}
	for _, c := range cfds {
		if err := c.Validate(d.Schema()); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	vio, err := cfd.NaiveViolationsSet(d, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// Example 1: t2–t6, t8, t9 (0-based indices 1..5, 7, 8).
	want := []int{1, 2, 3, 4, 5, 7, 8}
	if len(vio) != len(want) {
		t.Fatalf("violations = %v, want %v", vio, want)
	}
	for i := range want {
		if vio[i] != want[i] {
			t.Fatalf("violations = %v, want %v", vio, want)
		}
	}
	h, err := EMPFig1bPartition()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(d); err != nil {
		t.Errorf("Fig 1(b) partition: %v", err)
	}
	if _, err := partition.VerticalByAttrs(d, EMPVerticalAttrSets()); err != nil {
		t.Errorf("Example 1 vertical partition: %v", err)
	}
}

func TestCustGeneratorDeterministic(t *testing.T) {
	a := Cust(CustConfig{N: 500, Seed: 7})
	b := Cust(CustConfig{N: 500, Seed: 7})
	if !a.SameTuples(b) {
		t.Error("same seed produced different data")
	}
	c := Cust(CustConfig{N: 500, Seed: 8})
	if a.SameTuples(c) {
		t.Error("different seeds produced identical data")
	}
}

func TestCustViolationRateTracksErrRate(t *testing.T) {
	n := 4000
	clean := Cust(CustConfig{N: n, Seed: 1, ErrRate: 1e-12})
	dirty := Cust(CustConfig{N: n, Seed: 1, ErrRate: 0.05})
	rule := CustPatternCFD(255)
	vioClean, err := kern.DetectSet(clean, []*cfd.CFD{rule}, engine.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vioDirty, err := kern.DetectSet(dirty, []*cfd.CFD{rule}, engine.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vioClean) != 0 {
		t.Errorf("clean data has %d violations", len(vioClean))
	}
	if len(vioDirty) == 0 {
		t.Error("dirty data has no violations")
	}
	// Roughly half the errors hit city; each flags at least itself.
	if len(vioDirty) < n/100 {
		t.Errorf("dirty violations = %d, suspiciously few", len(vioDirty))
	}
}

func TestCustPatternCFDShape(t *testing.T) {
	for _, k := range []int{50, 150, 255} {
		c := CustPatternCFD(k)
		if len(c.Tp) != k {
			t.Errorf("k=%d: %d patterns", k, len(c.Tp))
		}
		if err := c.Validate(CustSchema()); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		if _, ok := c.VariableView(); !ok {
			t.Errorf("k=%d: pattern CFD must be variable", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range k accepted")
		}
	}()
	CustPatternCFD(0)
}

func TestCustOverlappingCFDsCluster(t *testing.T) {
	pair := CustOverlappingCFDs(100, 60)
	if len(pair[0].Tp) != 100 || len(pair[1].Tp) != 60 {
		t.Errorf("pattern counts = %d, %d", len(pair[0].Tp), len(pair[1].Tp))
	}
	// Containment: X2 ⊂ X1.
	x1 := cfd.NewAttrSet(pair[0].X...)
	if !x1.HasAll(pair[1].X) {
		t.Errorf("LHS containment broken: %v vs %v", pair[0].X, pair[1].X)
	}
}

func TestCustStreetCFD(t *testing.T) {
	c := CustStreetCFD()
	if err := c.Validate(CustSchema()); err != nil {
		t.Fatal(err)
	}
	if len(c.Tp) != 16 {
		t.Errorf("patterns = %d, want 16", len(c.Tp))
	}
	d := Cust(CustConfig{N: 2000, Seed: 3, ErrRate: 0.05})
	vio, err := kern.DetectSet(d, []*cfd.CFD{c}, engine.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Error("street CFD found no violations in dirty data")
	}
}

func TestXRefGenerator(t *testing.T) {
	d := XRef(XRefConfig{N: 3000, Seed: 11, ErrRate: 0.03})
	if d.Len() != 3000 || d.Schema().Arity() != 16 {
		t.Fatalf("xref shape: %d × %d", d.Len(), d.Schema().Arity())
	}
	for _, c := range []*cfd.CFD{XRefCFD(), XRefCFD2(), XRefMiningFD()} {
		if err := c.Validate(d.Schema()); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if len(XRefCFD().Tp) != 11 {
		t.Errorf("xref1 patterns = %d, want 11", len(XRefCFD().Tp))
	}
	if len(XRefCFD2().Tp) != 26 {
		t.Errorf("xref2 patterns = %d, want 26", len(XRefCFD2().Tp))
	}
	vio, err := kern.DetectSet(d, []*cfd.CFD{XRefCFD()}, engine.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Error("no xref1 violations in dirty data")
	}
	clean := XRef(XRefConfig{N: 3000, Seed: 11, ErrRate: 1e-12})
	vio, err = kern.DetectSet(clean, []*cfd.CFD{XRefCFD()}, engine.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) != 0 {
		t.Errorf("clean xref has %d violations", len(vio))
	}
}

func TestXRefOverlap(t *testing.T) {
	x1 := cfd.NewAttrSet(XRefCFD().X...)
	if !x1.HasAll(XRefCFD2().X) {
		t.Error("xref2 LHS not contained in xref1 LHS")
	}
}

func TestXRefHumanPartitionsByBatch(t *testing.T) {
	d := XRefHuman(4000, 5)
	h, err := partition.ByAttribute(d, "source")
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 7 {
		t.Errorf("fragments = %d, want 7 (one per curation batch)", h.N())
	}
	if err := h.Verify(d); err != nil {
		t.Error(err)
	}
	// Correlation: within each batch fragment, the dominant external_db
	// holds roughly 3/4 of the rows (0.8 own + scatter), far above the
	// 1/7 of independence.
	dbIdx := d.Schema().MustIndex("external_db")
	for fi, f := range h.Fragments {
		counts := map[string]int{}
		for _, tu := range f.Tuples() {
			counts[tu[dbIdx]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		share := float64(best) / float64(f.Len())
		if share < 0.5 {
			t.Errorf("fragment %d: dominant db share %.2f, want ≥ 0.5", fi, share)
		}
	}
}

// TestDeltaStreams pins the delta generators: deterministic under a
// seed, valid against their fragment (indices in range, no duplicate
// deletes), the configured insert/update/delete mix, and a mirror that
// tracks the fragment exactly when the emitted deltas are applied in
// order.
func TestDeltaStreams(t *testing.T) {
	mk := map[string]func(*relation.Relation, DeltaConfig) *DeltaStream{
		"cust": CustDeltaStream,
		"xref": XRefDeltaStream,
	}
	data := map[string]*relation.Relation{
		"cust": Cust(CustConfig{N: 300, Seed: 1, ErrRate: 0.05}),
		"xref": XRef(XRefConfig{N: 300, Seed: 1, ErrRate: 0.05}),
	}
	for name, stream := range mk {
		t.Run(name, func(t *testing.T) {
			frag := data[name].Clone()
			cfg := DeltaConfig{Seed: 9, Inserts: 4, Updates: 2, Deletes: 3, ErrRate: 0.2}
			ds := stream(frag, cfg)
			twin := stream(data[name].Clone(), cfg)
			for step := 0; step < 20; step++ {
				d := ds.Next()
				d2 := twin.Next()
				if fmt.Sprint(d.Deletes) != fmt.Sprint(d2.Deletes) || len(d.Inserts) != len(d2.Inserts) {
					t.Fatalf("step %d: streams with equal seeds diverged", step)
				}
				for i := range d.Inserts {
					if !d.Inserts[i].Equal(d2.Inserts[i]) {
						t.Fatalf("step %d: insert %d differs across equally-seeded streams", step, i)
					}
				}
				// updates contribute one delete + one insert each
				if got, want := len(d.Deletes), cfg.Deletes+cfg.Updates; got != want {
					t.Fatalf("step %d: %d deletes, want %d", step, got, want)
				}
				if got, want := len(d.Inserts), cfg.Inserts+cfg.Updates; got != want {
					t.Fatalf("step %d: %d inserts, want %d", step, got, want)
				}
				if _, err := frag.Apply(d); err != nil {
					t.Fatalf("step %d: emitted delta invalid for its fragment: %v", step, err)
				}
				if frag.Len() != ds.mirror.Len() {
					t.Fatalf("step %d: mirror has %d rows, fragment %d", step, ds.mirror.Len(), frag.Len())
				}
			}
			// Inserted rows match the bulk generator's schema.
			if frag.Schema().Arity() != data[name].Schema().Arity() {
				t.Fatal("delta stream changed the schema")
			}
		})
	}
}
