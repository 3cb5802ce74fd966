package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"distcfd/internal/cfd"
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

func TestDetectMatchesPaperExample(t *testing.T) {
	d := empD0()
	cases := []struct {
		c    *cfd.CFD
		want []int
	}{
		{phi1, []int{1, 2, 3, 4, 7, 8}},
		{phi2, nil},
		{phi3, []int{1, 2, 5}},
	}
	for _, tc := range cases {
		got, err := detectOne(d, tc.c, Opts{})
		if err != nil {
			t.Fatalf("%s: %v", tc.c.Name, err)
		}
		if !equalInts(got, tc.want) {
			t.Errorf("%s: DetectSet = %v, want %v", tc.c.Name, got, tc.want)
		}
	}
	all, err := defaultKernel.DetectSet(d, []*cfd.CFD{phi1, phi2, phi3}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(all, []int{1, 2, 3, 4, 5, 7, 8}) {
		t.Errorf("DetectSet = %v", all)
	}
}

func TestDetectAgreesWithNaiveOracleRandomized(t *testing.T) {
	// Randomized relations with small domains so collisions and
	// violations are frequent; the fast detector must agree with the
	// naive quadratic oracle on every draw.
	rng := rand.New(rand.NewSource(42))
	s := relation.MustSchema("R", []string{"a", "b", "c", "d"})
	domains := []int{3, 4, 2, 3}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		d := relation.New(s)
		for i := 0; i < n; i++ {
			row := make(relation.Tuple, 4)
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(domains[j]))
			}
			d.MustAppend(row)
		}
		c := randomCFD(rng)
		want, err := cfd.NaiveViolations(d, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := detectOne(d, c, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got, want) {
			t.Fatalf("trial %d: Detect = %v, oracle = %v\ncfd: %v\ndata: %v",
				trial, got, want, c, d)
		}
	}
}

func randomCFD(rng *rand.Rand) *cfd.CFD {
	attrs := []string{"a", "b", "c", "d"}
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	nx := 1 + rng.Intn(2)
	x := attrs[:nx]
	y := attrs[nx : nx+1]
	npat := 1 + rng.Intn(3)
	var pats []cfd.PatternTuple
	for p := 0; p < npat; p++ {
		lhs := make([]string, nx)
		for i := range lhs {
			if rng.Intn(2) == 0 {
				lhs[i] = cfd.Wildcard
			} else {
				lhs[i] = fmt.Sprintf("v%d", rng.Intn(3))
			}
		}
		rhs := []string{cfd.Wildcard}
		if rng.Intn(3) == 0 {
			rhs[0] = fmt.Sprintf("v%d", rng.Intn(3))
		}
		pats = append(pats, cfd.PatternTuple{LHS: lhs, RHS: rhs})
	}
	return cfd.MustNew("rand", x, y, pats)
}

func TestDetectUnitConstantAndVariable(t *testing.T) {
	d := empD0()
	consts := phi3.Normalize() // both rows are constant units
	// ψ1 = (CC=44, AC=131 ⇒ city=EDI): violated by t2, t3.
	got, err := detectUnits(d.Encoded(), d.Schema(), consts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{1, 2}) {
		t.Errorf("ψ1 violations = %v, want [1 2]", got)
	}
	// Both of phi1's rows are variable units.
	vars := phi1.Normalize()
	got2, err := detectUnits(d.Encoded(), d.Schema(), vars[:1]) // (44, _ ‖ _)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got2, []int{1, 2, 3, 4}) {
		t.Errorf("phi1/44 violations = %v, want [1 2 3 4]", got2)
	}
}

func TestDetectErrorsOnBadCFD(t *testing.T) {
	d := empD0()
	bad := cfd.MustParse(`[nope] -> [city]`)
	if _, err := detectOne(d, bad, Opts{}); err == nil {
		t.Error("expected validation error")
	}
	if _, err := ViolationPatterns(d, bad); err == nil {
		t.Error("expected validation error from ViolationPatterns")
	}
}

func TestDetectPiAndPatterns(t *testing.T) {
	d := empD0()
	vio, err := detectOne(d, phi1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := cfd.VioPi(d, phi1, vio) // Vioπ(φ, d): X-patterns null-padded to d's schema
	if err != nil {
		t.Fatal(err)
	}
	if pi.Len() != 2 {
		t.Errorf("Vioπ rows = %d, want 2", pi.Len())
	}
	pats, err := ViolationPatterns(d, phi1)
	if err != nil {
		t.Fatal(err)
	}
	if pats.Len() != 2 || pats.Schema().Arity() != 2 {
		t.Errorf("patterns = %v", pats)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
