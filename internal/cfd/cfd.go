// Package cfd implements conditional functional dependencies (CFDs) as
// defined in Fan et al., "Conditional Functional Dependencies for
// Capturing Data Inconsistencies" (TODS 2008) and used by
// "Detecting Inconsistencies in Distributed Data" (ICDE 2010):
// syntax (embedded FD + pattern tableau), the ≍ match operator,
// normalization into single-attribute, single-pattern form, constant/
// variable classification, a rule-file parser, naive satisfaction
// semantics (the test oracle for the fast detectors), and implication
// machinery (attribute closure for FDs, a chase for CFDs under the
// infinite-domain assumption).
package cfd

import (
	"fmt"
	"strings"

	"distcfd/internal/relation"
)

// Wildcard is the unnamed variable '_' of pattern tuples.
const Wildcard = "_"

// PatternTuple is one row tp of a pattern tableau Tp: LHS is aligned
// with the CFD's X attributes, RHS with its Y attributes. Each entry is
// either a constant or Wildcard.
type PatternTuple struct {
	LHS []string
	RHS []string
}

// Clone deep-copies the pattern tuple.
func (p PatternTuple) Clone() PatternTuple {
	return PatternTuple{
		LHS: append([]string(nil), p.LHS...),
		RHS: append([]string(nil), p.RHS...),
	}
}

// String renders the pattern as (l1, l2 ‖ r1).
func (p PatternTuple) String() string {
	return "(" + strings.Join(p.LHS, ", ") + " || " + strings.Join(p.RHS, ", ") + ")"
}

// CFD is a conditional functional dependency φ = R(X → Y, Tp).
// Name is optional and used in diagnostics and reports.
type CFD struct {
	Name string
	X    []string
	Y    []string
	Tp   []PatternTuple
}

// New constructs a CFD and validates its internal consistency
// (non-empty X and Y, pattern arity, no X/Y overlap*).
//
// *The paper allows A ∈ X∩Y via the t[A_L]/t[A_R] notation; this
// implementation does not need that generality for any of the paper's
// rules or experiments, and rejects overlap to keep projection
// semantics unambiguous.
func New(name string, x, y []string, tp []PatternTuple) (*CFD, error) {
	c := &CFD{Name: name, X: x, Y: y, Tp: tp}
	if err := c.check(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewFD constructs the CFD encoding a traditional FD X → Y: a single
// all-wildcard pattern tuple.
func NewFD(name string, x, y []string) (*CFD, error) {
	tp := PatternTuple{LHS: make([]string, len(x)), RHS: make([]string, len(y))}
	for i := range tp.LHS {
		tp.LHS[i] = Wildcard
	}
	for i := range tp.RHS {
		tp.RHS[i] = Wildcard
	}
	return New(name, x, y, []PatternTuple{tp})
}

// MustNew is New panicking on error; for tests and fixtures.
func MustNew(name string, x, y []string, tp []PatternTuple) *CFD {
	c, err := New(name, x, y, tp)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *CFD) check() error {
	if len(c.X) == 0 {
		return fmt.Errorf("cfd %s: empty LHS", c.Name)
	}
	if len(c.Y) == 0 {
		return fmt.Errorf("cfd %s: empty RHS", c.Name)
	}
	seen := map[string]bool{}
	for _, a := range c.X {
		if seen[a] {
			return fmt.Errorf("cfd %s: duplicate attribute %q in LHS", c.Name, a)
		}
		seen[a] = true
	}
	for _, a := range c.Y {
		if seen[a] {
			return fmt.Errorf("cfd %s: attribute %q appears in both sides or twice", c.Name, a)
		}
		seen[a] = true
	}
	if len(c.Tp) == 0 {
		return fmt.Errorf("cfd %s: empty pattern tableau", c.Name)
	}
	for i, tp := range c.Tp {
		if len(tp.LHS) != len(c.X) {
			return fmt.Errorf("cfd %s: pattern %d LHS arity %d, want %d", c.Name, i, len(tp.LHS), len(c.X))
		}
		if len(tp.RHS) != len(c.Y) {
			return fmt.Errorf("cfd %s: pattern %d RHS arity %d, want %d", c.Name, i, len(tp.RHS), len(c.Y))
		}
	}
	return nil
}

// Validate checks that the CFD is well formed over schema s.
func (c *CFD) Validate(s *relation.Schema) error {
	if err := c.check(); err != nil {
		return err
	}
	for _, a := range c.X {
		if !s.HasAttr(a) {
			return fmt.Errorf("cfd %s: LHS attribute %q not in schema %s", c.Name, a, s.Name())
		}
	}
	for _, a := range c.Y {
		if !s.HasAttr(a) {
			return fmt.Errorf("cfd %s: RHS attribute %q not in schema %s", c.Name, a, s.Name())
		}
	}
	return nil
}

// IsFD reports whether the CFD is a traditional FD: a single pattern
// tuple consisting of wildcards only.
func (c *CFD) IsFD() bool {
	if len(c.Tp) != 1 {
		return false
	}
	for _, v := range c.Tp[0].LHS {
		if v != Wildcard {
			return false
		}
	}
	for _, v := range c.Tp[0].RHS {
		if v != Wildcard {
			return false
		}
	}
	return true
}

// String renders the CFD as name: ([X] -> [Y], {patterns}).
func (c *CFD) String() string {
	var b strings.Builder
	if c.Name != "" {
		b.WriteString(c.Name)
		b.WriteString(": ")
	}
	b.WriteString("([")
	b.WriteString(strings.Join(c.X, ", "))
	b.WriteString("] -> [")
	b.WriteString(strings.Join(c.Y, ", "))
	b.WriteString("], {")
	for i, p := range c.Tp {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString("})")
	return b.String()
}

// Match implements the ≍ operator on a data value and a pattern entry:
// v ≍ p iff p is the wildcard or v = p.
func Match(v, p string) bool {
	return p == Wildcard || v == p
}

// MatchAll extends ≍ pointwise: values ≍ pattern.
func MatchAll(values, pattern []string) bool {
	if len(values) != len(pattern) {
		return false
	}
	for i := range values {
		if !Match(values[i], pattern[i]) {
			return false
		}
	}
	return true
}
