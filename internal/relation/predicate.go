package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Op is a comparison operator in a selection atom.
type Op int

const (
	// OpEq tests attr = value.
	OpEq Op = iota
	// OpNe tests attr ≠ value.
	OpNe
	// OpIn tests attr ∈ {values...}.
	OpIn
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpIn:
		return "in"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Atom is a single comparison attr Op value(s).
type Atom struct {
	Attr   string
	Op     Op
	Values []string
}

// Eq builds the atom attr = v.
func Eq(attr, v string) Atom { return Atom{Attr: attr, Op: OpEq, Values: []string{v}} }

// Ne builds the atom attr ≠ v.
func Ne(attr, v string) Atom { return Atom{Attr: attr, Op: OpNe, Values: []string{v}} }

// In builds the atom attr ∈ vs.
func In(attr string, vs ...string) Atom { return Atom{Attr: attr, Op: OpIn, Values: vs} }

func (a Atom) String() string {
	switch a.Op {
	case OpIn:
		return a.Attr + " in {" + strings.Join(a.Values, ",") + "}"
	default:
		return a.Attr + " " + a.Op.String() + " " + a.Values[0]
	}
}

// Predicate is a conjunction of atoms, the Boolean predicate Fi that
// defines a horizontal fragment Di = σFi(D) (Section II-B). The empty
// predicate is true.
type Predicate struct {
	Atoms []Atom
}

// And builds a conjunction from atoms.
func And(atoms ...Atom) Predicate { return Predicate{Atoms: atoms} }

// True returns the always-true predicate.
func True() Predicate { return Predicate{} }

// IsTrue reports whether p is the empty (always-true) conjunction.
func (p Predicate) IsTrue() bool { return len(p.Atoms) == 0 }

// Eval evaluates the predicate on tuple t of schema s. Attributes
// missing from the schema make the atom false.
func (p Predicate) Eval(s *Schema, t Tuple) bool {
	for _, a := range p.Atoms {
		i, ok := s.Index(a.Attr)
		if !ok {
			return false
		}
		v := t[i]
		switch a.Op {
		case OpEq:
			if v != a.Values[0] {
				return false
			}
		case OpNe:
			if v == a.Values[0] {
				return false
			}
		case OpIn:
			found := false
			for _, w := range a.Values {
				if v == w {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// ConsistentWith reports whether the conjunction p ∧ q is satisfiable,
// treating every attribute domain as infinite. This implements the
// partitioning-condition test of Section IV-A: when the fragment
// predicate Fi conjoined with the CFD pattern predicate Fφ is
// inconsistent, no tuple of the fragment can match the pattern and no
// shipment involving that fragment is needed.
//
// Satisfiability rules per attribute, over the combined atoms:
//   - all OpEq constants must agree;
//   - the intersection of all OpIn sets (and the Eq constant, if any)
//     must be non-empty;
//   - the surviving candidate set must not be fully excluded by OpNe
//     atoms (with an infinite domain, Ne alone never causes
//     unsatisfiability).
func (p Predicate) ConsistentWith(q Predicate) bool {
	type constraint struct {
		eq       map[string]struct{} // candidate values; nil = unconstrained
		excluded map[string]struct{}
	}
	cons := map[string]*constraint{}
	get := func(attr string) *constraint {
		c, ok := cons[attr]
		if !ok {
			c = &constraint{excluded: map[string]struct{}{}}
			cons[attr] = c
		}
		return c
	}
	add := func(a Atom) bool {
		c := get(a.Attr)
		switch a.Op {
		case OpEq, OpIn:
			set := make(map[string]struct{}, len(a.Values))
			for _, v := range a.Values {
				set[v] = struct{}{}
			}
			if c.eq == nil {
				c.eq = set
			} else {
				for v := range c.eq {
					if _, ok := set[v]; !ok {
						delete(c.eq, v)
					}
				}
			}
			if len(c.eq) == 0 {
				return false
			}
		case OpNe:
			c.excluded[a.Values[0]] = struct{}{}
		}
		return true
	}
	for _, a := range p.Atoms {
		if !add(a) {
			return false
		}
	}
	for _, a := range q.Atoms {
		if !add(a) {
			return false
		}
	}
	for _, c := range cons {
		if c.eq == nil {
			continue // infinite domain: some non-excluded value exists
		}
		alive := false
		for v := range c.eq {
			if _, ex := c.excluded[v]; !ex {
				alive = true
				break
			}
		}
		if !alive {
			return false
		}
	}
	return true
}

func (p Predicate) String() string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, len(p.Atoms))
	for i, a := range p.Atoms {
		parts[i] = a.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " ∧ ")
}
