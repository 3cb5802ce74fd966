// Package relation provides the relational data model underlying the
// distributed CFD detection library: schemas, tuples, relations,
// selection predicates, CSV encoding and dictionary (value-interning)
// support. It corresponds to the data model of Section II of
// Fan et al., "Detecting Inconsistencies in Distributed Data" (ICDE 2010).
package relation

import (
	"fmt"
	"strings"
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
