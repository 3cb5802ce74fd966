package relation

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func smallRel(t *testing.T) *Relation {
	t.Helper()
	s := MustSchema("T", []string{"a", "b", "c"}, "a")
	return MustFromRows(s,
		[]string{"1", "x", "p"},
		[]string{"2", "x", "q"},
		[]string{"3", "y", "p"},
		[]string{"4", "y", "q"},
	)
}

func TestAppendValidation(t *testing.T) {
	s := MustSchema("T", []string{"a", "b"})
	r := New(s)
	if err := r.Append(Tuple{"1", "2"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := r.Append(Tuple{"1"}); err == nil {
		t.Error("expected arity error")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestFromTuplesValidation(t *testing.T) {
	s := MustSchema("T", []string{"a", "b"})
	if _, err := FromTuples(s, []Tuple{{"1", "2"}, {"bad"}}); err == nil {
		t.Error("expected arity error")
	}
	r, err := FromTuples(s, []Tuple{{"1", "2"}})
	if err != nil || r.Len() != 1 {
		t.Errorf("FromTuples: %v len=%d", err, r.Len())
	}
}

func TestSelect(t *testing.T) {
	r := smallRel(t)
	i := r.Schema().MustIndex("b")
	got := r.Select(func(t Tuple) bool { return t[i] == "x" })
	if got.Len() != 2 {
		t.Fatalf("Select returned %d tuples, want 2", got.Len())
	}
	for _, tu := range got.Tuples() {
		if tu[i] != "x" {
			t.Errorf("selected tuple %v has b != x", tu)
		}
	}
}

func TestProjectAndDistinct(t *testing.T) {
	r := smallRel(t)
	p, err := r.Project("P", []string{"b"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 4 {
		t.Errorf("Project len = %d, want 4 (duplicates kept)", p.Len())
	}
	d, err := r.DistinctProject("P", []string{"b"})
	if err != nil {
		t.Fatalf("DistinctProject: %v", err)
	}
	if d.Len() != 2 {
		t.Errorf("DistinctProject len = %d, want 2", d.Len())
	}
	if d.Tuple(0)[0] != "x" || d.Tuple(1)[0] != "y" {
		t.Errorf("DistinctProject order unexpected: %v", d.Tuples())
	}
	if _, err := r.Project("P", []string{"zz"}); err == nil {
		t.Error("expected error for unknown attribute")
	}
}

func TestAppendAllAndClone(t *testing.T) {
	r := smallRel(t)
	c := r.Clone()
	if !r.SameTuples(c) {
		t.Fatal("clone differs")
	}
	c.Tuple(0)[0] = "mutated"
	if r.Tuple(0)[0] == "mutated" {
		t.Error("Clone shared tuple storage")
	}
	before := r.Len()
	if err := r.AppendAll(c); err != nil {
		t.Fatalf("AppendAll: %v", err)
	}
	if r.Len() != 2*before {
		t.Errorf("Len after AppendAll = %d, want %d", r.Len(), 2*before)
	}
	two := MustSchema("U", []string{"only"})
	if err := r.AppendAll(New(two)); err == nil {
		t.Error("expected arity mismatch error")
	}
}

func TestSortBy(t *testing.T) {
	s := MustSchema("T", []string{"a", "b"})
	r := MustFromRows(s, []string{"2", "b"}, []string{"1", "z"}, []string{"1", "a"})
	if err := r.SortBy("a", "b"); err != nil {
		t.Fatalf("SortBy: %v", err)
	}
	want := [][2]string{{"1", "a"}, {"1", "z"}, {"2", "b"}}
	for i, w := range want {
		if r.Tuple(i)[0] != w[0] || r.Tuple(i)[1] != w[1] {
			t.Errorf("row %d = %v, want %v", i, r.Tuple(i), w)
		}
	}
	if err := r.SortBy("nope"); err == nil {
		t.Error("expected error sorting by unknown attribute")
	}
}

// TestSortByMatchesReflectSort holds SortBy to the order the
// sort.SliceStable comparator it replaced produced, byte for byte, over
// random relations whose values collide often, are often prefixes of
// one another and include empty strings and non-UTF-8 bytes — keyed on
// some attributes, and on the whole schema, which SortBy sorts
// unstably.
func TestSortByMatchesReflectSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"", "a", "ab", "b", "\xff", "a\x00", "\x1f"}
	s := MustSchema("T", []string{"a", "b", "c", "id"})
	for trial := 0; trial < 200; trial++ {
		r := New(s)
		for i := rng.Intn(300); i > 0; i-- {
			r.MustAppend(Tuple{alphabet[rng.Intn(len(alphabet))], alphabet[rng.Intn(len(alphabet))],
				alphabet[rng.Intn(len(alphabet))], strconv.Itoa(i)})
		}
		attrs := [][]string{{"a"}, {"b", "a"}, {"c", "a", "b"}, {"a", "b", "c", "id"}}[trial%4]
		idx, _ := s.Indices(attrs)
		want := slices.Clone(r.Tuples())
		sort.SliceStable(want, func(a, b int) bool {
			ta, tb := want[a], want[b]
			for _, j := range idx {
				if ta[j] != tb[j] {
					return ta[j] < tb[j]
				}
			}
			return false
		})
		if err := r.SortBy(attrs...); err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(r.Tuples(), want, slices.Equal) {
			t.Fatalf("trial %d: SortBy(%v) order differs from the stable reflect sort", trial, attrs)
		}
	}
}

func TestSameTuples(t *testing.T) {
	s := MustSchema("T", []string{"a"})
	r1 := MustFromRows(s, []string{"x"}, []string{"y"}, []string{"x"})
	r2 := MustFromRows(s, []string{"y"}, []string{"x"}, []string{"x"})
	r3 := MustFromRows(s, []string{"x"}, []string{"y"}, []string{"y"})
	if !r1.SameTuples(r2) {
		t.Error("permutation should be SameTuples")
	}
	if r1.SameTuples(r3) {
		t.Error("different multiset should not be SameTuples")
	}
}

func TestTupleHelpers(t *testing.T) {
	tu := Tuple{"a", "b", "c"}
	cl := tu.Clone()
	cl[0] = "z"
	if tu[0] != "a" {
		t.Error("Clone aliases storage")
	}
	if !tu.Equal(Tuple{"a", "b", "c"}) || tu.Equal(Tuple{"a", "b"}) || tu.Equal(Tuple{"a", "b", "z"}) {
		t.Error("Equal wrong")
	}
	p := tu.Project([]int{2, 0})
	if !p.Equal(Tuple{"c", "a"}) {
		t.Errorf("Project = %v", p)
	}
	if tu.Key([]int{1}) != "b" {
		t.Error("single-attr Key should be raw value")
	}
	if tu.Key([]int{0, 1}) != "\x01a\x01b" {
		t.Errorf("Key = %q", tu.Key([]int{0, 1}))
	}
	if tu.String() != "(a, b, c)" {
		t.Errorf("String = %q", tu.String())
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Property: Key is injective for ARBITRARY values — the
	// length-prefixed encoding needs no separator-free assumption.
	// (The old 0x1f-join version of this test had to scrub the
	// separator out of the inputs first.)
	f := func(a1, a2, b1, b2 string) bool {
		t1 := Tuple{a1, a2}
		t2 := Tuple{b1, b2}
		k1, k2 := t1.Key([]int{0, 1}), t2.Key([]int{0, 1})
		if t1.Equal(t2) {
			return k1 == k2
		}
		return k1 != k2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := smallRel(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()), "T", "a")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !r.SameTuples(got) {
		t.Error("CSV round trip lost tuples")
	}
	if got.Schema().String() != r.Schema().String() {
		t.Errorf("schema after round trip = %v", got.Schema())
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.ID("alpha")
	b := d.ID("beta")
	if a == b {
		t.Error("distinct values share an ID")
	}
	if d.ID("alpha") != a {
		t.Error("re-interning changed the ID")
	}
	if d.Val(a) != "alpha" || d.Val(b) != "beta" {
		t.Error("Val mapping wrong")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup of unseen value succeeded")
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Error("Lookup(beta) wrong")
	}
}

func TestDictEncodingInjectiveProperty(t *testing.T) {
	f := func(vals []string) bool {
		d := NewDict()
		ids := make(map[string]uint32)
		for _, v := range vals {
			id := d.ID(v)
			if prev, seen := ids[v]; seen && prev != id {
				return false
			}
			ids[v] = id
			if d.Val(id) != v {
				return false
			}
		}
		return d.Len() == len(ids)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
