package engine

import (
	"testing"

	"distcfd/internal/relation"
)

func TestJoinReconstructsVerticalPartition(t *testing.T) {
	// EMP split as in Example 1: DV1 (name/title/address), DV2 (phone),
	// DV3 (salary); the join on id must reconstruct D0.
	full := empD0()
	dv1, err := full.Project("DV1", []string{"id", "name", "title", "street", "city", "zip"})
	if err != nil {
		t.Fatal(err)
	}
	dv2, err := full.Project("DV2", []string{"id", "CC", "AC", "phn"})
	if err != nil {
		t.Fatal(err)
	}
	dv3, err := full.Project("DV3", []string{"id", "salary"})
	if err != nil {
		t.Fatal(err)
	}
	joined, err := JoinAll([]*relation.Relation{dv1, dv2, dv3}, []string{"id"}, "EMPJ")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != full.Len() {
		t.Fatalf("join has %d tuples, want %d", joined.Len(), full.Len())
	}
	// Same content modulo column order: project both to a fixed order.
	cols := full.Schema().Attrs()
	a, err := joined.Project("A", cols)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SameTuples(full) {
		t.Error("join did not reconstruct the original relation")
	}
}

func TestJoinErrors(t *testing.T) {
	s1 := relation.MustSchema("L", []string{"id", "a"}, "id")
	s2 := relation.MustSchema("R", []string{"id", "a"}, "id") // 'a' collides
	l := relation.MustFromRows(s1, []string{"1", "x"})
	r := relation.MustFromRows(s2, []string{"1", "y"})
	if _, err := Join(l, r, []string{"id"}, "J"); err == nil {
		t.Error("expected collision error for non-key shared attribute")
	}
	s3 := relation.MustSchema("R2", []string{"key2", "b"})
	r2 := relation.MustFromRows(s3, []string{"1", "y"})
	if _, err := Join(l, r2, []string{"id"}, "J"); err == nil {
		t.Error("expected error: right side lacks join attribute")
	}
}

func TestJoinIsKeyJoin(t *testing.T) {
	s1 := relation.MustSchema("L", []string{"id", "a"}, "id")
	s2 := relation.MustSchema("R", []string{"id", "b"}, "id")
	l := relation.MustFromRows(s1, []string{"1", "x"}, []string{"2", "y"})
	r := relation.MustFromRows(s2, []string{"2", "q"}, []string{"3", "r"})
	j, err := Join(l, r, []string{"id"}, "J")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("join len = %d, want 1", j.Len())
	}
	if j.Tuple(0)[0] != "2" || j.Tuple(0)[2] != "q" {
		t.Errorf("join row = %v", j.Tuple(0))
	}
	if j.Schema().Arity() != 3 {
		t.Errorf("join schema = %v", j.Schema())
	}
}

func TestSemiJoin(t *testing.T) {
	s1 := relation.MustSchema("L", []string{"id", "a"}, "id")
	s2 := relation.MustSchema("K", []string{"id"})
	l := relation.MustFromRows(s1, []string{"1", "x"}, []string{"2", "y"}, []string{"3", "z"})
	keys := relation.MustFromRows(s2, []string{"1"}, []string{"3"}, []string{"9"})
	sj, err := SemiJoin(l, keys, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if sj.Len() != 2 {
		t.Fatalf("semijoin len = %d, want 2", sj.Len())
	}
	if sj.Tuple(0)[0] != "1" || sj.Tuple(1)[0] != "3" {
		t.Errorf("semijoin rows = %v", sj.Tuples())
	}
	if _, err := SemiJoin(l, keys, []string{"zz"}); err == nil {
		t.Error("expected error for unknown join attribute")
	}
}

func TestUnion(t *testing.T) {
	s := relation.MustSchema("T", []string{"a"})
	r1 := relation.MustFromRows(s, []string{"1"})
	r2 := relation.MustFromRows(s, []string{"2"}, []string{"3"})
	u, err := Union("U", r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Errorf("union len = %d, want 3", u.Len())
	}
	if _, err := Union("U"); err == nil {
		t.Error("expected error for empty union")
	}
}

func TestCheckCost(t *testing.T) {
	if CheckCost(0) != 0 || CheckCost(1) != 1 {
		t.Error("base cases wrong")
	}
	if CheckCost(1024) != 1024*10 {
		t.Errorf("CheckCost(1024) = %f, want 10240", CheckCost(1024))
	}
	if CheckCost(100) <= CheckCost(50)*2 {
		t.Error("CheckCost should be super-linear")
	}
}
