package relation

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestMergeSorted: the merge drops r's tuples that drop lists, keeps one
// copy of a tuple r and add both hold, ignores a drop tuple r lacks, and
// leaves its inputs alone.
func TestMergeSorted(t *testing.T) {
	s := MustSchema("P", []string{"x", "y"})
	r := MustFromRows(s, []string{"a", "1"}, []string{"b", "1"}, []string{"c", "1"}, []string{"d", "1"})
	add := MustFromRows(s, []string{"", "9"}, []string{"b", "1"}, []string{"c", "0"}, []string{"e", "1"})
	drop := MustFromRows(s, []string{"a", "0"}, []string{"c", "1"}, []string{"d", "1"})
	got, err := r.MergeSorted(add, drop, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromRows(s, []string{"", "9"}, []string{"a", "1"}, []string{"b", "1"}, []string{"c", "0"}, []string{"e", "1"})
	if got.String() != want.String() {
		t.Fatalf("merged\n%s\nwant\n%s", got, want)
	}
	if r.Len() != 4 || add.Len() != 4 || drop.Len() != 3 {
		t.Error("the merge changed an input")
	}
	if _, err := r.MergeSorted(MustFromRows(MustSchema("Q", []string{"x"}), []string{"a"}), nil, "x"); err == nil {
		t.Error("an arity mismatch merged")
	}
}

// TestCountedSetMatchesSort drives random batches — several sources
// reporting one tuple, a tuple removed and re-added in one batch, values
// around the key separator — and checks every Update against sorting the
// tuples whose count is positive, and every earlier result against what
// it was when returned.
func TestCountedSetMatchesSort(t *testing.T) {
	s := MustSchema("P", []string{"x", "y"})
	vals := []string{"", "a", "b", "a\x1f", "\x1fb", "c"}
	rng := rand.New(rand.NewSource(7))
	cs := NewCountedSet(s)
	count := map[string]int{}
	tuples := map[string]Tuple{}
	var results []*Relation
	var texts []string
	for round := 0; round < 300; round++ {
		// Removals only take what the set held before the batch: Update
		// applies every removal first.
		added, removed := make([]*Relation, 3), make([]*Relation, 3)
		for src := range removed {
			removed[src] = New(s)
			for _, k := range slices.Sorted(maps.Keys(count)) {
				if count[k] > 0 && rng.Intn(5) == 0 {
					count[k]--
					removed[src].MustAppend(tuples[k])
				}
			}
		}
		for src := range added {
			added[src] = New(s)
			for n := rng.Intn(4); n > 0; n-- {
				tp := Tuple{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
				tuples[tp.canon()] = tp
				count[tp.canon()]++
				added[src].MustAppend(tp)
			}
		}
		got, err := cs.Update(added, removed)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := New(s)
		for k, n := range count {
			if n > 0 {
				want.MustAppend(tuples[k])
			}
		}
		if err := want.SortBy("x", "y"); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("round %d: set\n%s\nwant\n%s", round, got, want)
		}
		for i, r := range results {
			if r.String() != texts[i] {
				t.Fatalf("round %d changed the result of round %d", round, i)
			}
		}
		results, texts = append(results, got), append(texts, got.String())
	}
}

// TestCountedSetRefuses: a batch over other attributes or of another
// arity, or one removing a tuple the set does not hold, is an error.
func TestCountedSetRefuses(t *testing.T) {
	s := MustSchema("P", []string{"x", "y"})
	for name, batch := range map[string][2][]*Relation{
		"other-attributes": {{MustFromRows(MustSchema("Q", []string{"y", "x"}), []string{"a", "b"})}, nil},
		"other-arity":      {{MustFromRows(MustSchema("Q", []string{"x", "y", "z"}), []string{"a", "b", "c"})}, nil},
		"unheld-removal":   {nil, {MustFromRows(s, []string{"a", "b"})}},
	} {
		if _, err := NewCountedSet(s).Update(batch[0], batch[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
