package relation

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func empSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("EMP",
		[]string{"id", "name", "title", "CC", "AC", "phn", "street", "city", "zip", "salary"},
		"id")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("R", nil); err == nil {
		t.Error("expected error for empty attribute list")
	}
	if _, err := NewSchema("R", []string{"a", "a"}); err == nil {
		t.Error("expected error for duplicate attribute")
	}
	if _, err := NewSchema("R", []string{"a", ""}); err == nil {
		t.Error("expected error for empty attribute name")
	}
	if _, err := NewSchema("R", []string{"a"}, "b"); err == nil {
		t.Error("expected error for key not in schema")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := empSchema(t)
	if s.Name() != "EMP" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Arity() != 10 {
		t.Errorf("Arity = %d, want 10", s.Arity())
	}
	if i, ok := s.Index("city"); !ok || i != 7 {
		t.Errorf("Index(city) = %d,%v want 7,true", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should be absent")
	}
	if !s.HasAttr("zip") || s.HasAttr("zap") {
		t.Error("HasAttr wrong")
	}
	if got := s.Key(); len(got) != 1 || got[0] != "id" {
		t.Errorf("Key = %v", got)
	}
	if s.MustIndex("salary") != 9 {
		t.Error("MustIndex(salary) != 9")
	}
}

func TestSchemaMustIndexPanics(t *testing.T) {
	s := empSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on missing attribute should panic")
		}
	}()
	s.MustIndex("missing")
}

func TestSchemaIndices(t *testing.T) {
	s := empSchema(t)
	idx, err := s.Indices([]string{"CC", "zip", "street"})
	if err != nil {
		t.Fatalf("Indices: %v", err)
	}
	want := []int{3, 8, 6}
	for i := range want {
		if idx[i] != want[i] {
			t.Errorf("Indices[%d] = %d, want %d", i, idx[i], want[i])
		}
	}
	if _, err := s.Indices([]string{"CC", "bogus"}); err == nil {
		t.Error("expected error for unknown attribute")
	}
}

func TestSchemaProject(t *testing.T) {
	s := empSchema(t)
	ps, err := s.Project("EMP_V2", []string{"id", "CC", "AC", "phn"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if ps.Arity() != 4 || ps.Name() != "EMP_V2" {
		t.Errorf("projected schema = %v", ps)
	}
	if got := ps.Key(); len(got) != 1 || got[0] != "id" {
		t.Errorf("projected key = %v, want [id]", got)
	}
	// Projection dropping the key loses the key.
	ps2, err := s.Project("NOKEY", []string{"CC", "AC"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if len(ps2.Key()) != 0 {
		t.Errorf("projected key = %v, want empty", ps2.Key())
	}
	if _, err := s.Project("BAD", []string{"nope"}); err == nil {
		t.Error("expected error projecting unknown attribute")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema("R", []string{"a", "b"}, "a")
	str := s.String()
	if !strings.Contains(str, "a*") || !strings.Contains(str, "R(") {
		t.Errorf("String = %q", str)
	}
	// The rendering is what round-trip tests compare schemas by: name,
	// attribute order and key all show.
	for _, o := range []*Schema{
		MustSchema("S", []string{"a", "b"}, "a"),
		MustSchema("R", []string{"b", "a"}, "a"),
		MustSchema("R", []string{"a", "b"}, "b"),
	} {
		if o.String() == str {
			t.Errorf("%q renders a different schema too", str)
		}
	}
}

// TestInternSchema pins the schema reuse every received relation goes
// through: a repeated name, attribute list and key return the schema
// built the first time without allocating, any difference builds
// another, a rejected schema is an error as NewSchema's, and a shape
// whose slot ever-new names took over is built afresh, equal to the
// first (the cache is a fixed array of schemaSlots).
func TestInternSchema(t *testing.T) {
	attrs := []string{"a", "b", "c"}
	s, err := InternSchema("R", attrs, "a")
	if err != nil {
		t.Fatal(err)
	}
	again, err := InternSchema("R", slices.Clone(attrs), "a")
	if err != nil || again != s {
		t.Fatalf("a repeated shape built another schema (%p, %p, %v)", s, again, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = InternSchema("R", attrs, "a") }); allocs != 0 {
		t.Fatalf("a repeated shape allocates %v times", allocs)
	}
	for _, other := range []func() (*Schema, error){
		func() (*Schema, error) { return InternSchema("S", attrs, "a") },
		func() (*Schema, error) { return InternSchema("R", attrs[:2], "a") },
		func() (*Schema, error) { return InternSchema("R", attrs, "b") },
		func() (*Schema, error) { return InternSchema("R", attrs) },
	} {
		o, err := other()
		if err != nil || o == s || o.String() == s.String() {
			t.Fatalf("another shape came back as %v (%v)", o, err)
		}
	}
	if _, err := InternSchema("R", []string{"a", "a"}); err == nil {
		t.Fatal("a duplicate attribute was accepted")
	}
	// More shapes than slots, differing in the key alone: some land in a
	// slot another of them holds, and must still come back keyed right.
	keyed := make([]string, 2*schemaSlots)
	for i := range keyed {
		keyed[i] = fmt.Sprint("k", i)
	}
	for _, k := range keyed {
		if s, err := InternSchema("K", keyed, k); err != nil || !slices.Equal(s.Key(), []string{k}) {
			t.Fatalf("shape keyed %s came back as %v (%v)", k, s, err)
		}
	}
	for i := range 10 * schemaSlots {
		if _, err := InternSchema(fmt.Sprint("N", i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	if back, err := InternSchema("R", attrs, "a"); err != nil || back.String() != s.String() {
		t.Fatalf("after %d other shapes R came back as %v (%v)", 10*schemaSlots, back, err)
	}
}
