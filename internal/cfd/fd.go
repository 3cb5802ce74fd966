package cfd

import (
	"sort"
	"strings"
)

// FD is a plain functional dependency X → Y over attribute names,
// used by the vertical-partitioning machinery (Section V) where the
// paper's intractability results already hold for traditional FDs.
type FD struct {
	X []string
	Y []string
}

// FDString renders the FD as X -> Y.
func (f FD) String() string {
	return strings.Join(f.X, ",") + " -> " + strings.Join(f.Y, ",")
}

// AttrSet is a set of attribute names.
type AttrSet map[string]struct{}

// NewAttrSet builds a set from names.
func NewAttrSet(names ...string) AttrSet {
	s := make(AttrSet, len(names))
	for _, n := range names {
		s[n] = struct{}{}
	}
	return s
}

// Add inserts names into the set.
func (s AttrSet) Add(names ...string) {
	for _, n := range names {
		s[n] = struct{}{}
	}
}

// Has reports membership.
func (s AttrSet) Has(n string) bool {
	_, ok := s[n]
	return ok
}

// HasAll reports whether every name is a member.
func (s AttrSet) HasAll(names []string) bool {
	for _, n := range names {
		if !s.Has(n) {
			return false
		}
	}
	return true
}

// Clone copies the set.
func (s AttrSet) Clone() AttrSet {
	out := make(AttrSet, len(s))
	for n := range s {
		out[n] = struct{}{}
	}
	return out
}

// Sorted returns the members in lexicographic order.
func (s AttrSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Closure computes the attribute closure X⁺ of x under the FDs,
// using the standard fixpoint algorithm.
func Closure(x []string, fds []FD) AttrSet {
	closure := NewAttrSet(x...)
	changed := true
	for changed {
		changed = false
		for _, f := range fds {
			if closure.HasAll(f.X) {
				for _, a := range f.Y {
					if !closure.Has(a) {
						closure.Add(a)
						changed = true
					}
				}
			}
		}
	}
	return closure
}

// ImpliesFD reports whether fds ⊨ f, via attribute closure.
func ImpliesFD(fds []FD, f FD) bool {
	return Closure(f.X, fds).HasAll(f.Y)
}
