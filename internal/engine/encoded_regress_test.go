package engine

import (
	"testing"

	"distcfd/internal/relation"
)

// TestJoinWithSparseDictionaryRight pins the dictionary-vs-row
// membership distinction: a ProjectRows extract shares its source's
// dictionary, which holds values the extract's rows never carry. A
// left key matching such a phantom value must not join (it used to
// panic in Join and produce a false match in SemiJoin).
func TestJoinWithSparseDictionaryRight(t *testing.T) {
	src := relation.MustFromRows(
		relation.MustSchema("SRC", []string{"id", "v"}, "id"),
		[]string{"a", "1"},
		[]string{"b", "2"},
		[]string{"c", "3"},
	)
	// right holds only the "a" row but shares SRC's id dictionary
	// (which also interned "b" and "c").
	right, err := src.ProjectRows("R", []string{"id", "v"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	left := relation.MustFromRows(
		relation.MustSchema("L", []string{"id", "w"}, "id"),
		[]string{"c", "x"}, // in right's dict, NOT in right's rows
		[]string{"a", "y"}, // genuine match
	)
	j, err := Join(left, right, []string{"id"}, "J")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustFromRows(j.Schema(), []string{"a", "y", "1"})
	if !j.SameTuples(want) {
		t.Errorf("Join = %v, want only the genuine match", j)
	}
	sj, err := SemiJoin(left, right, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if sj.Len() != 1 || sj.Tuple(0)[0] != "a" {
		t.Errorf("SemiJoin = %v, want only the 'a' tuple", sj)
	}

	// Composite keys through the same sparse path.
	right2, err := src.ProjectRows("R2", []string{"id", "v"}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	left2 := relation.MustFromRows(
		relation.MustSchema("L2", []string{"id", "v", "w"}),
		[]string{"a", "2", "x"}, // both values in dicts, combo absent
		[]string{"b", "2", "y"}, // genuine
	)
	sj2, err := SemiJoin(left2, right2, []string{"id", "v"})
	if err != nil {
		t.Fatal(err)
	}
	if sj2.Len() != 1 || sj2.Tuple(0)[0] != "b" {
		t.Errorf("composite SemiJoin = %v, want only the 'b' tuple", sj2)
	}
}
