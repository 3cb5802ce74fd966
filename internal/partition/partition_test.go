package partition

import (
	"strconv"
	"testing"

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

// TestFig1bPartition reproduces Fig. 1(b): EMP partitioned by title
// into DH1 (MTS), DH2 (DMTS), DH3 (VP).
func TestFig1bPartition(t *testing.T) {
	d := empD0()
	h, err := ByAttribute(d, "title")
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 3 {
		t.Fatalf("fragments = %d, want 3", h.N())
	}
	// Sorted by value: DMTS, MTS, VP.
	wantSizes := map[string]int{"DMTS": 5, "MTS": 4, "VP": 1}
	titleIdx := d.Schema().MustIndex("title")
	for i, f := range h.Fragments {
		if f.Len() == 0 {
			t.Fatalf("fragment %d empty", i)
		}
		title := f.Tuple(0)[titleIdx]
		if f.Len() != wantSizes[title] {
			t.Errorf("fragment %s has %d tuples, want %d", title, f.Len(), wantSizes[title])
		}
		for _, tu := range f.Tuples() {
			if tu[titleIdx] != title {
				t.Errorf("fragment %s contains tuple with title %s", title, tu[titleIdx])
			}
		}
	}
	if err := h.Verify(d); err != nil {
		t.Errorf("Verify: %v", err)
	}
	rec, err := h.Reconstruct()
	if err != nil || !rec.SameTuples(d) {
		t.Errorf("Reconstruct failed: %v", err)
	}
}

func TestByPredicates(t *testing.T) {
	d := empD0()
	preds := []relation.Predicate{
		relation.And(relation.Eq("title", "MTS")),
		relation.And(relation.Eq("title", "DMTS")),
		relation.And(relation.Eq("title", "VP")),
	}
	h, err := ByPredicates(d, preds)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(d); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if h.Fragments[0].Len() != 4 || h.Fragments[1].Len() != 5 || h.Fragments[2].Len() != 1 {
		t.Errorf("sizes = %d %d %d", h.Fragments[0].Len(), h.Fragments[1].Len(), h.Fragments[2].Len())
	}

	// Incomplete predicate set: error.
	if _, err := ByPredicates(d, preds[:2]); err == nil {
		t.Error("expected completeness error")
	}
	// Overlapping predicates: error.
	overlap := []relation.Predicate{
		relation.And(relation.In("title", "MTS", "DMTS", "VP")),
		relation.And(relation.Eq("title", "VP")),
	}
	if _, err := ByPredicates(d, overlap); err == nil {
		t.Error("expected disjointness error")
	}
	if _, err := ByPredicates(d, nil); err == nil {
		t.Error("expected error for empty predicate list")
	}
}

func TestUniform(t *testing.T) {
	d := empD0()
	for _, seed := range []int64{-1, 7} {
		h, err := Uniform(d, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if h.N() != 4 {
			t.Fatalf("fragments = %d", h.N())
		}
		if err := h.Verify(d); err != nil {
			t.Errorf("seed %d: Verify: %v", seed, err)
		}
		for _, f := range h.Fragments {
			if f.Len() < 2 || f.Len() > 3 {
				t.Errorf("seed %d: fragment size %d not near-uniform", seed, f.Len())
			}
		}
	}
	if _, err := Uniform(d, 0, -1); err == nil {
		t.Error("expected error for n=0")
	}
	// Determinism with same seed.
	h1, _ := Uniform(d, 3, 99)
	h2, _ := Uniform(d, 3, 99)
	for i := range h1.Fragments {
		if !h1.Fragments[i].SameTuples(h2.Fragments[i]) {
			t.Error("same seed produced different partitions")
		}
	}
}

func TestVerifyCatchesDuplicates(t *testing.T) {
	d := empD0()
	h, err := Uniform(d, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate one tuple across fragments.
	h.Fragments[1].MustAppend(h.Fragments[0].Tuple(0))
	if err := h.Verify(d); err == nil {
		t.Error("Verify should catch duplicated tuples")
	}
}

func TestVerifyCatchesPredicateMismatch(t *testing.T) {
	d := empD0()
	h, err := ByAttribute(d, "title")
	if err != nil {
		t.Fatal(err)
	}
	// Move one tuple to the wrong fragment (keeps union equal).
	victim := h.Fragments[0].Tuple(0)
	rest := h.Fragments[0].Select(func(t relation.Tuple) bool { return !t.Equal(victim) })
	h.Fragments[0] = rest
	h.Fragments[1].MustAppend(victim)
	if err := h.Verify(d); err == nil {
		t.Error("Verify should catch predicate mismatch")
	}
}

// TestExample1VerticalPartition reproduces the vertical partition of
// Example 1: DV1 (name, title, address), DV2 (phone), DV3 (salary).
func TestExample1VerticalPartition(t *testing.T) {
	d := empD0()
	v, err := VerticalByAttrs(d, [][]string{
		{"name", "title", "street", "city", "zip"},
		{"CC", "AC", "phn"},
		{"salary"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 3 {
		t.Fatalf("fragments = %d", v.N())
	}
	// Key id is auto-added to each fragment.
	for i, f := range v.Fragments {
		if !f.Schema().HasAttr("id") {
			t.Errorf("fragment %d missing key", i)
		}
		if f.Len() != d.Len() {
			t.Errorf("fragment %d has %d tuples, want %d", i, f.Len(), d.Len())
		}
	}
	if err := v.Verify(d); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// R2 = (id, CC, AC, phn), as the paper notes.
	if got := v.Fragments[1].Schema().Arity(); got != 4 {
		t.Errorf("DV2 arity = %d, want 4", got)
	}
}

func TestVerticalValidation(t *testing.T) {
	d := empD0()
	// Missing coverage of some attribute.
	if _, err := VerticalByAttrs(d, [][]string{{"name"}, {"salary"}}); err == nil {
		t.Error("expected coverage error")
	}
	// Unknown attribute.
	if _, err := VerticalByAttrs(d, [][]string{{"nope"}, {"name", "title", "CC", "AC", "phn", "street", "city", "zip", "salary"}}); err == nil {
		t.Error("expected unknown attribute error")
	}
	if _, err := VerticalByAttrs(d, nil); err == nil {
		t.Error("expected error for no attr sets")
	}
	// No key on schema.
	noKey := relation.MustSchema("R", []string{"a", "b"})
	rd := relation.MustFromRows(noKey, []string{"1", "2"})
	if _, err := VerticalByAttrs(rd, [][]string{{"a"}, {"b"}}); err == nil {
		t.Error("expected error for keyless schema")
	}
}

func TestFragmentFor(t *testing.T) {
	d := empD0()
	v, err := VerticalByAttrs(d, [][]string{
		{"name", "title", "street", "city", "zip"},
		{"CC", "AC", "phn"},
		{"salary"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.FragmentFor([]string{"CC", "AC", "phn"}); got != 1 {
		t.Errorf("FragmentFor(phone attrs) = %d, want 1", got)
	}
	if got := v.FragmentFor([]string{"CC", "salary"}); got != -1 {
		t.Errorf("FragmentFor(cross-fragment) = %d, want -1", got)
	}
	if got := v.FragmentFor([]string{"id"}); got != 0 {
		t.Errorf("FragmentFor(key) = %d, want 0 (first match)", got)
	}
}

func TestUniformLargeScale(t *testing.T) {
	s := relation.MustSchema("T", []string{"id", "v"}, "id")
	d := relation.New(s)
	for i := 0; i < 1000; i++ {
		d.MustAppend(relation.Tuple{strconv.Itoa(i), strconv.Itoa(i % 7)})
	}
	h, err := Uniform(d, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(d); err != nil {
		t.Fatal(err)
	}
	for _, f := range h.Fragments {
		if f.Len() != 125 {
			t.Errorf("fragment size %d, want 125", f.Len())
		}
	}
}
