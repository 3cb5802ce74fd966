package cfd

import "testing"

// Normalized.Key regression: the old ","/"->"/"||"-joined form fused
// distinct units whose attribute names or pattern constants contained
// the separators.

func TestNormalizedKeyInjective(t *testing.T) {
	cases := [][2]*Normalized{
		{
			// Attribute-name comma ambiguity: X=["a,b"] vs X=["a","b"].
			{X: []string{"a,b"}, A: "y", TpX: []string{"_"}, TpA: "_"},
			{X: []string{"a", "b"}, A: "y", TpX: []string{"_", "_"}, TpA: "_"},
		},
		{
			// Constant containing the "||" marker vs a real TpA split.
			{X: []string{"x"}, A: "y", TpX: []string{"v||w"}, TpA: "_"},
			{X: []string{"x"}, A: "y", TpX: []string{"v"}, TpA: "w"},
		},
		{
			// X leaking into A across the "->" marker.
			{X: []string{"a->b"}, A: "c", TpX: []string{"_"}, TpA: "_"},
			{X: []string{"a"}, A: "b:c", TpX: []string{"_"}, TpA: "_"},
		},
	}
	for i, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Errorf("case %d: Key collides for %s vs %s", i, c[0], c[1])
		}
	}
}

func TestNormalizedKeyEqualForIdenticalUnits(t *testing.T) {
	a := &Normalized{Parent: "p1", X: []string{"cc", "ac"}, A: "city", TpX: []string{"44", "_"}, TpA: "_"}
	b := &Normalized{Parent: "p2", X: []string{"cc", "ac"}, A: "city", TpX: []string{"44", "_"}, TpA: "_"}
	if a.Key() != b.Key() {
		t.Error("Key must ignore provenance (Parent)")
	}
}

func TestNormalizeSetSeparatorDedup(t *testing.T) {
	// Under the old comma-joined Key, a one-attribute X named "a,b"
	// with constant "u,v" and a two-attribute X ["a","b"] with
	// constants ["u","v"] rendered the identical key "a,b->y:u,v||_",
	// so NormalizeSet dropped one of them as a duplicate.
	c1 := MustNew("c1", []string{"a,b"}, []string{"y"},
		[]PatternTuple{{LHS: []string{"u,v"}, RHS: []string{Wildcard}}})
	c2 := MustNew("c2", []string{"a", "b"}, []string{"y"},
		[]PatternTuple{{LHS: []string{"u", "v"}, RHS: []string{Wildcard}}})
	ns := NormalizeSet([]*CFD{c1, c2})
	if len(ns) != 2 {
		t.Fatalf("NormalizeSet fused distinct units: got %d, want 2", len(ns))
	}
}
