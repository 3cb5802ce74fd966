package cfd

import (
	"strings"
	"testing"

	"distcfd/internal/relation"
)

// empSchema mirrors Fig. 1(a) of the paper.
func empSchema() *relation.Schema {
	return relation.MustSchema("EMP",
		[]string{"id", "name", "title", "CC", "AC", "phn", "street", "city", "zip", "salary"},
		"id")
}

// empD0 is the instance D0 of Fig. 1(a).
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

// phi1, phi2, phi3 are the CFDs of Example 2.
func phi1() *CFD {
	return MustNew("phi1", []string{"CC", "zip"}, []string{"street"}, []PatternTuple{
		{LHS: []string{"44", "_"}, RHS: []string{"_"}},
		{LHS: []string{"31", "_"}, RHS: []string{"_"}},
	})
}

func phi2() *CFD {
	c, err := NewFD("phi2", []string{"CC", "title"}, []string{"salary"})
	if err != nil {
		panic(err)
	}
	return c
}

func phi3() *CFD {
	return MustNew("phi3", []string{"CC", "AC"}, []string{"city"}, []PatternTuple{
		{LHS: []string{"44", "131"}, RHS: []string{"EDI"}},
		{LHS: []string{"01", "908"}, RHS: []string{"MH"}},
	})
}

func TestNewValidation(t *testing.T) {
	pt := []PatternTuple{{LHS: []string{"_"}, RHS: []string{"_"}}}
	if _, err := New("", nil, []string{"b"}, pt); err == nil {
		t.Error("empty X accepted")
	}
	if _, err := New("", []string{"a"}, nil, pt); err == nil {
		t.Error("empty Y accepted")
	}
	if _, err := New("", []string{"a"}, []string{"b"}, nil); err == nil {
		t.Error("empty tableau accepted")
	}
	if _, err := New("", []string{"a", "a"}, []string{"b"}, pt); err == nil {
		t.Error("duplicate LHS attribute accepted")
	}
	if _, err := New("", []string{"a"}, []string{"a"}, pt); err == nil {
		t.Error("X/Y overlap accepted")
	}
	bad := []PatternTuple{{LHS: []string{"_", "_"}, RHS: []string{"_"}}}
	if _, err := New("", []string{"a"}, []string{"b"}, bad); err == nil {
		t.Error("LHS arity mismatch accepted")
	}
	bad2 := []PatternTuple{{LHS: []string{"_"}, RHS: []string{}}}
	if _, err := New("", []string{"a"}, []string{"b"}, bad2); err == nil {
		t.Error("RHS arity mismatch accepted")
	}
}

func TestValidateAgainstSchema(t *testing.T) {
	s := empSchema()
	if err := phi1().Validate(s); err != nil {
		t.Errorf("phi1 should validate: %v", err)
	}
	bad := MustNew("bad", []string{"CC", "nope"}, []string{"street"}, []PatternTuple{
		{LHS: []string{"_", "_"}, RHS: []string{"_"}},
	})
	if err := bad.Validate(s); err == nil {
		t.Error("unknown LHS attribute accepted")
	}
	bad2 := MustNew("bad2", []string{"CC"}, []string{"nope"}, []PatternTuple{
		{LHS: []string{"_"}, RHS: []string{"_"}},
	})
	if err := bad2.Validate(s); err == nil {
		t.Error("unknown RHS attribute accepted")
	}
}

func TestMatchOperator(t *testing.T) {
	cases := []struct {
		v, p string
		want bool
	}{
		{"Mayfield", "_", true},
		{"Mayfield", "Mayfield", true},
		{"Mayfield", "NYC", false},
		{"", "_", true},
		{"_", "_", true},
	}
	for _, c := range cases {
		if got := Match(c.v, c.p); got != c.want {
			t.Errorf("Match(%q,%q) = %v, want %v", c.v, c.p, got, c.want)
		}
	}
	if !MatchAll([]string{"Mayfield", "EDI"}, []string{"_", "EDI"}) {
		t.Error("(Mayfield, EDI) should match (_, EDI)")
	}
	if MatchAll([]string{"Mayfield", "EDI"}, []string{"_", "NYC"}) {
		t.Error("(Mayfield, EDI) should not match (_, NYC)")
	}
	if MatchAll([]string{"a"}, []string{"_", "_"}) {
		t.Error("arity mismatch should not match")
	}
}

func TestIsFD(t *testing.T) {
	if !phi2().IsFD() {
		t.Error("phi2 is the FD cfd3 and must report IsFD")
	}
	if phi1().IsFD() || phi3().IsFD() {
		t.Error("phi1/phi3 are not FDs")
	}
}

func TestNormalize(t *testing.T) {
	ns := phi3().Normalize()
	if len(ns) != 2 {
		t.Fatalf("phi3 normalizes to %d units, want 2", len(ns))
	}
	for _, n := range ns {
		if !n.IsConstant() {
			t.Errorf("%v should be constant", n)
		}
		if n.A != "city" {
			t.Errorf("A = %q, want city", n.A)
		}
	}
	ns1 := phi1().Normalize()
	if len(ns1) != 2 {
		t.Fatalf("phi1 normalizes to %d units, want 2", len(ns1))
	}
	for _, n := range ns1 {
		if !n.IsVariable() {
			t.Errorf("%v should be variable", n)
		}
	}
}

func TestNormalizeMultiY(t *testing.T) {
	c := MustNew("m", []string{"a"}, []string{"b", "c"}, []PatternTuple{
		{LHS: []string{"1"}, RHS: []string{"x", "_"}},
	})
	ns := c.Normalize()
	if len(ns) != 2 {
		t.Fatalf("normalize gave %d units, want 2", len(ns))
	}
	var consts, vars int
	for _, n := range ns {
		if n.IsConstant() {
			consts++
		} else {
			vars++
		}
	}
	if consts != 1 || vars != 1 {
		t.Errorf("got %d constant / %d variable, want 1/1", consts, vars)
	}
}

func TestNormalizeDeduplicates(t *testing.T) {
	c := MustNew("dup", []string{"a"}, []string{"b"}, []PatternTuple{
		{LHS: []string{"1"}, RHS: []string{"x"}},
		{LHS: []string{"1"}, RHS: []string{"x"}},
	})
	if got := len(c.Normalize()); got != 1 {
		t.Errorf("duplicate patterns should normalize once, got %d", got)
	}
}

func TestVariableView(t *testing.T) {
	if _, ok := phi3().VariableView(); ok {
		t.Error("phi3 is all-constant; no variable view expected")
	}
	v, ok := phi1().VariableView()
	if !ok || len(v.Tp) != 2 {
		t.Fatalf("phi1 variable view = %v, %v", v, ok)
	}
	mixed := MustNew("m", []string{"a"}, []string{"b"}, []PatternTuple{
		{LHS: []string{"1"}, RHS: []string{"x"}},
		{LHS: []string{"2"}, RHS: []string{"_"}},
	})
	v2, ok := mixed.VariableView()
	if !ok || len(v2.Tp) != 1 || v2.Tp[0].LHS[0] != "2" {
		t.Errorf("mixed variable view = %v, %v", v2, ok)
	}
}

func TestCFDStringAndClone(t *testing.T) {
	c := phi3()
	s := c.String()
	for _, want := range []string{"phi3", "CC", "AC", "city", "EDI"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	cl := c.Tp[0].Clone()
	cl.LHS[0] = "99"
	if c.Tp[0].LHS[0] == "99" {
		t.Error("Clone shares pattern storage")
	}
}
