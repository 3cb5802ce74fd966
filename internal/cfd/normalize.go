package cfd

import (
	"encoding/binary"
	"strings"

	"distcfd/internal/relation"
)

// Normalized is a CFD in the normal form of Section IV-A: a single RHS
// attribute A and a single pattern tuple, (X → A, tp). Every CFD
// (X → Y, Tp) is equivalent to the set of Normalized CFDs obtained by
// projecting each tableau row onto each Y attribute.
type Normalized struct {
	// Parent names the CFD this normalized unit came from.
	Parent string
	// X is the LHS attribute list.
	X []string
	// A is the single RHS attribute.
	A string
	// TpX is the pattern over X (constants or Wildcard), aligned with X.
	TpX []string
	// TpA is the pattern entry for A: a constant (constant CFD) or
	// Wildcard (variable CFD).
	TpA string
}

// IsConstant reports whether the normalized CFD is a constant CFD
// (tp[A] is a constant). A single tuple can violate a constant CFD, so
// by Proposition 5 constant CFDs are always locally checkable in
// horizontal fragments.
func (n *Normalized) IsConstant() bool { return n.TpA != Wildcard }

// IsVariable reports whether tp[A] is the wildcard.
func (n *Normalized) IsVariable() bool { return n.TpA == Wildcard }

// Key is a canonical identity string for deduplication: a
// length-prefixed encoding of (X, A, TpX, TpA), injective for
// arbitrary attribute names and pattern constants — the old
// ","/"||"-join fused distinct units whose values contained the
// separators. Two Normalized units are semantically identical iff
// their Keys are equal (Parent is provenance, not identity).
func (n *Normalized) Key() string {
	b := binary.AppendUvarint(nil, uint64(len(n.X)))
	b = relation.AppendKey(b, n.X...)
	b = relation.AppendKey(b, n.A)
	b = relation.AppendKey(b, n.TpX...)
	return string(relation.AppendKey(b, n.TpA))
}

// String renders the normalized CFD.
func (n *Normalized) String() string {
	return "([" + strings.Join(n.X, ", ") + "] -> " + n.A +
		", (" + strings.Join(n.TpX, ", ") + " || " + n.TpA + "))"
}

// Normalize splits the CFD into its equivalent set of Normalized CFDs:
// one per (pattern tuple, Y attribute) pair, deduplicated.
func (c *CFD) Normalize() []*Normalized {
	var out []*Normalized
	seen := map[string]bool{}
	for _, tp := range c.Tp {
		for yi, a := range c.Y {
			n := &Normalized{
				Parent: c.Name,
				X:      c.X,
				A:      a,
				TpX:    tp.LHS,
				TpA:    tp.RHS[yi],
			}
			if k := n.Key(); !seen[k] {
				seen[k] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// VariableView returns the CFD restricted to pattern rows and RHS
// entries that are variable (wildcard RHS), regrouped per pattern row:
// the per-pattern detection algorithms of Section IV-B operate on this
// view. The result has the same X and Y; pattern rows whose RHS
// entries are all constants are dropped. If no variable part remains,
// ok is false.
func (c *CFD) VariableView() (view *CFD, ok bool) {
	var rows []PatternTuple
	for _, tp := range c.Tp {
		hasVar := false
		for _, v := range tp.RHS {
			if v == Wildcard {
				hasVar = true
				break
			}
		}
		if hasVar {
			rows = append(rows, tp.Clone())
		}
	}
	if len(rows) == 0 {
		return nil, false
	}
	return &CFD{Name: c.Name, X: c.X, Y: c.Y, Tp: rows}, true
}
