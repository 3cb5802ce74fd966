// Package relation provides the relational data model underlying the
// distributed CFD detection library: schemas, tuples, relations,
// selection predicates, CSV encoding and dictionary (value-interning)
// support. It corresponds to the data model of Section II of
// Fan et al., "Detecting Inconsistencies in Distributed Data" (ICDE 2010).
package relation

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync/atomic"
)

// Null is the distinguished value used to pad attributes outside the X
// attributes of Vioπ results (Section II-C of the paper). It uses the
// Unicode "symbol for null" so it cannot collide with ordinary CSV data.
const Null = "␀"

// Schema describes a relation schema R: a name, an ordered attribute
// list attr(R), and the key attributes key(R).
//
// A Schema is immutable after construction; it is safe to share across
// goroutines.
type Schema struct {
	name  string
	attrs []string
	index map[string]int
	key   []string
}

// NewSchema builds a schema with the given relation name and attributes.
// Key attributes, if any, must be a subset of attrs. Attribute names must
// be non-empty and unique.
func NewSchema(name string, attrs []string, key ...string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %q has no attributes", name)
	}
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: schema %q: empty attribute name at position %d", name, i)
		}
		if _, dup := idx[a]; dup {
			return nil, fmt.Errorf("relation: schema %q: duplicate attribute %q", name, a)
		}
		idx[a] = i
	}
	for _, k := range key {
		if _, ok := idx[k]; !ok {
			return nil, fmt.Errorf("relation: schema %q: key attribute %q not in schema", name, k)
		}
	}
	return &Schema{
		name:  name,
		attrs: append([]string(nil), attrs...),
		index: idx,
		key:   append([]string(nil), key...),
	}, nil
}

// schemaSlots bounds the schemas InternSchema keeps.
const schemaSlots = 64

// schemas is InternSchema's cache: one schema a slot, the slot a hash
// of its name, attributes and key picks.
var schemas [schemaSlots]atomic.Pointer[Schema]

// InternSchema is NewSchema for a schema that recurs — each relation a
// site or the driver receives names one of a few. When name,
// attributes and key repeat a schema it returned before, it returns
// that schema again without allocating. It keeps at most schemaSlots
// schemas, one a slot of a hash of the three, and a new schema takes
// its slot over from what the slot held, so a peer sending ever-new
// names cannot grow it. Safe for concurrent use.
func InternSchema(name string, attrs []string, key ...string) (*Schema, error) {
	h := maphash.String(dictSeed, name)
	for _, a := range attrs {
		h = h*31 + maphash.String(dictSeed, a)
	}
	for _, k := range key {
		h = h*37 + maphash.String(dictSeed, k)
	}
	slot := &schemas[h%schemaSlots]
	if s := slot.Load(); s != nil && s.name == name && slices.Equal(s.attrs, attrs) && slices.Equal(s.key, key) {
		return s, nil
	}
	s, err := NewSchema(name, attrs, key...)
	if err == nil {
		slot.Store(s)
	}
	return s, err
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(name string, attrs []string, key ...string) *Schema {
	s, err := NewSchema(name, attrs, key...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Attrs returns the ordered attribute list. The caller must not modify it.
func (s *Schema) Attrs() []string { return s.attrs }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Key returns the key attributes (possibly empty).
func (s *Schema) Key() []string { return s.key }

// Index returns the position of attribute a, or ok=false if absent.
func (s *Schema) Index(a string) (int, bool) {
	i, ok := s.index[a]
	return i, ok
}

// MustIndex returns the position of attribute a, panicking if absent.
// Use only where the attribute has already been validated.
func (s *Schema) MustIndex(a string) int {
	i, ok := s.index[a]
	if !ok {
		panic(fmt.Sprintf("relation: schema %q has no attribute %q", s.name, a))
	}
	return i
}

// HasAttr reports whether a is an attribute of the schema.
func (s *Schema) HasAttr(a string) bool {
	_, ok := s.index[a]
	return ok
}

// Indices maps a list of attribute names to their positions.
func (s *Schema) Indices(attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := s.index[a]
		if !ok {
			return nil, fmt.Errorf("relation: schema %q has no attribute %q", s.name, a)
		}
		out[i] = j
	}
	return out, nil
}

// Project builds the schema of a vertical fragment carrying exactly
// attrs (in the given order), named name. The fragment keeps whatever
// key attributes of s appear in attrs.
func (s *Schema) Project(name string, attrs []string) (*Schema, error) {
	if _, err := s.Indices(attrs); err != nil {
		return nil, err
	}
	var key []string
	for _, k := range s.key {
		for _, a := range attrs {
			if a == k {
				key = append(key, k)
				break
			}
		}
	}
	return NewSchema(name, attrs, key...)
}

// String renders the schema as NAME(a, b, c) with key attributes starred.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		for _, k := range s.key {
			if k == a {
				b.WriteByte('*')
				break
			}
		}
	}
	b.WriteByte(')')
	return b.String()
}
