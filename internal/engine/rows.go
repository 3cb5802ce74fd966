package engine

import (
	"sort"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// The row-oriented reference detector: the original implementation of
// the fast detector, grouping on string keys built per tuple. The
// engine's default path now runs on the columnar dictionary-encoded
// view (detect.go); this form is kept as the baseline of DESIGN.md
// ablation 8 and as the second leg of the cross-representation
// equivalence tests (including the kernel fuzz target). It is the
// engine's one check per normalized unit (cfd.Normalize); every other
// path checks a CFD once over its whole tableau. Its keys are the
// length-prefixed exact form of relation.Tuple.Key rather than a
// \x1f-join: the fuzzer found X projections like ("b\x1f", "") and
// ("b", "\x1f") whose joined keys collide, which merged distinct
// groups and reported phantom violations the exact encoded path (and
// cfd.NaiveViolations) correctly rejects.

// DetectRows returns Vio(φ, d) as sorted tuple indices using the
// row-oriented string-key path.
func DetectRows(d *relation.Relation, c *cfd.CFD) ([]int, error) {
	if err := c.Validate(d.Schema()); err != nil {
		return nil, err
	}
	bad := make(map[int]struct{})
	for _, n := range c.Normalize() {
		if err := detectUnitIntoRows(d, n, bad); err != nil {
			return nil, err
		}
	}
	return sortedKeys(bad), nil
}

// DetectSetRows returns Vio(Σ, d) as sorted tuple indices using the
// row-oriented string-key path.
func DetectSetRows(d *relation.Relation, cs []*cfd.CFD) ([]int, error) {
	bad := make(map[int]struct{})
	for _, c := range cs {
		if err := c.Validate(d.Schema()); err != nil {
			return nil, err
		}
		for _, n := range c.Normalize() {
			if err := detectUnitIntoRows(d, n, bad); err != nil {
				return nil, err
			}
		}
	}
	return sortedKeys(bad), nil
}

func detectUnitIntoRows(d *relation.Relation, n *cfd.Normalized, bad map[int]struct{}) error {
	xi, err := d.Schema().Indices(n.X)
	if err != nil {
		return err
	}
	aIdxs, err := d.Schema().Indices([]string{n.A})
	if err != nil {
		return err
	}
	aIdx := aIdxs[0]

	if n.IsConstant() {
		for i, t := range d.Tuples() {
			if matchesAt(t, xi, n.TpX) && t[aIdx] != n.TpA {
				bad[i] = struct{}{}
			}
		}
		return nil
	}

	// Variable unit: group matching tuples by X (value-exact keys).
	groups := make(map[string][]int)
	firstVal := make(map[string]string)
	mixed := make(map[string]bool)
	for i, t := range d.Tuples() {
		if !matchesAt(t, xi, n.TpX) {
			continue
		}
		k := t.Key(xi)
		groups[k] = append(groups[k], i)
		v := t[aIdx]
		if fv, ok := firstVal[k]; !ok {
			firstVal[k] = v
		} else if fv != v {
			mixed[k] = true
		}
	}
	for k := range mixed {
		for _, i := range groups[k] {
			bad[i] = struct{}{}
		}
	}
	return nil
}

func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func matchesAt(t relation.Tuple, idx []int, pattern []string) bool {
	for j, i := range idx {
		p := pattern[j]
		if p != cfd.Wildcard && t[i] != p {
			return false
		}
	}
	return true
}
