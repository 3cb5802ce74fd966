package core

import (
	"slices"

	"distcfd/internal/cfd"
)

// clusterByLHS groups CFD indices with union-find, merging two CFDs
// when one's LHS attribute set contains the other's (the paper's
// overlap condition). Containment is not transitive as a relation on
// sets with a common superset — X1 ⊆ X3 and X2 ⊆ X3 do not make
// X1 ∩ X2 non-empty — so union-find groups are post-split until every
// cluster has a non-empty shared LHS W, which the shared σ spec needs.
// Clusters are reported in first-member order.
func clusterByLHS(cfds []*cfd.CFD) [][]int {
	parent := make([]int, len(cfds))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < len(cfds); i++ {
		for j := i + 1; j < len(cfds); j++ {
			if containsAll(cfds[i].X, cfds[j].X) || containsAll(cfds[j].X, cfds[i].X) {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	var order []int
	for i := range cfds {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, splitForNonEmptyW(cfds, groups[r])...)
	}
	return out
}

// splitForNonEmptyW greedily subdivides a candidate cluster so every
// part keeps a non-empty running LHS intersection.
func splitForNonEmptyW(cfds []*cfd.CFD, members []int) [][]int {
	var out [][]int
	remaining := members
	for len(remaining) > 0 {
		cur := []int{remaining[0]}
		w := append([]string(nil), cfds[remaining[0]].X...)
		var rest []int
		for _, idx := range remaining[1:] {
			inter := intersectAttrs(w, cfds[idx].X)
			if len(inter) > 0 {
				cur = append(cur, idx)
				w = inter
			} else {
				rest = append(rest, idx)
			}
		}
		out = append(out, cur)
		remaining = rest
	}
	return out
}

func intersectAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func containsAll(super, sub []string) bool {
	for _, a := range sub {
		if !slices.Contains(super, a) {
			return false
		}
	}
	return true
}

// sharedLHS returns W = ∩ LHS over the views, ordered as in the first
// view with the fewest LHS attributes (deterministic).
func sharedLHS(views []*cfd.CFD) []string {
	w := slices.MinFunc(views, func(a, b *cfd.CFD) int { return len(a.X) - len(b.X) }).X
	for _, v := range views {
		w = intersectAttrs(w, v.X)
	}
	return w
}

// projectedSpec builds the cluster σ spec: the union of every view's
// tableau rows projected onto W, deduplicated and generality-sorted
// (NewBlockSpec does both).
func projectedSpec(w []string, views []*cfd.CFD) (*BlockSpec, error) {
	var patterns [][]string
	for _, v := range views {
		pos := lhsPositions(w, v)
		for _, tp := range v.Tp {
			p := make([]string, len(w))
			for i, j := range pos {
				p[i] = tp.LHS[j]
			}
			patterns = append(patterns, p)
		}
	}
	return NewBlockSpec(w, patterns)
}

// lhsPositions maps each attribute of w to its position in c.X (-1 when
// c.X lacks it): how a spec over W reads a CFD's LHS patterns.
func lhsPositions(w []string, c *cfd.CFD) []int {
	pos := make([]int, len(w))
	for i, a := range w {
		pos[i] = slices.Index(c.X, a)
	}
	return pos
}
