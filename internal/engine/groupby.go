// Package engine is a small relational execution engine: hash
// group-by, hash join and semijoin over in-memory relations, plus the
// fast CFD violation detector that plays the role of the SQL-based
// detection queries of Fan et al. [2] — the `check(D, Σ)` step the
// paper's cost model charges at every site.
package engine

import (
	"distcfd/internal/relation"
)

// Groups is the result of a hash group-by: for each distinct key over
// the grouping attributes, the indices of the member tuples in input
// order. Keys keep the \x1f-joined string form for callers, but they
// are materialized once per distinct group — the per-tuple work runs
// on the relation's dictionary-encoded columns.
type Groups struct {
	keys    []string
	members map[string][]int
}

// GroupBy hash-partitions the relation on attrs.
func GroupBy(d *relation.Relation, attrs []string) (*Groups, error) {
	idx, err := d.Schema().Indices(attrs)
	if err != nil {
		return nil, err
	}
	e := d.Encoded()
	rows := e.Rows()
	g := &Groups{members: make(map[string][]int)}
	if rows == 0 {
		return g, nil
	}

	cols := make([][]uint32, len(idx))
	dicts := make([]*relation.Dict, len(idx))
	for j, c := range idx {
		cols[j], dicts[j] = e.Column(c)
	}
	gids, num := groupIDs(cols, dicts, rows)

	// First-seen order, one key string materialized per distinct group
	// ID. Distinct ID groups whose string keys collide (multi-attribute
	// keys with values containing the \x1f separator) are merged under
	// the shared key: GroupBy's contract is keyed by that string.
	slotByGid := make([]int32, num)
	for i := range slotByGid {
		slotByGid[i] = -1
	}
	var slotByKey map[string]int32
	memb := make([][]int, 0, 16)
	for i := 0; i < rows; i++ {
		s := slotByGid[gids[i]]
		if s < 0 {
			k := d.Tuple(i).Key(idx)
			if slotByKey == nil {
				slotByKey = make(map[string]int32, 16)
			}
			if shared, ok := slotByKey[k]; ok {
				s = shared
			} else {
				s = int32(len(g.keys))
				g.keys = append(g.keys, k)
				memb = append(memb, nil)
				slotByKey[k] = s
			}
			slotByGid[gids[i]] = s
		}
		memb[s] = append(memb[s], i)
	}
	for s, k := range g.keys {
		g.members[k] = memb[s]
	}
	return g, nil
}

// groupIDs computes a dense, exact group ID per row over the given
// column vectors: single columns group on their dictionary IDs
// directly, composites are pair-folded through the map-free fold of
// fold.go (no hash truncation, so distinct key tuples never share an
// ID). The dictionaries bound each column's ID space — a column's
// dictionary already knows its own size, so no scan is needed.
func groupIDs(cols [][]uint32, dicts []*relation.Dict, rows int) ([]uint32, int) {
	gids := make([]uint32, rows)
	copy(gids, cols[0])
	num := dicts[0].Len()
	if len(cols) == 1 {
		return gids, num
	}
	var st foldStage
	for j, col := range cols[1:] {
		num = foldColumn(gids, col, num, dicts[j+1].Len(), &st)
	}
	return gids, num
}

// Len returns the number of distinct groups.
func (g *Groups) Len() int { return len(g.keys) }

// Each calls fn for every group in first-seen order with the member
// tuple indices. fn returning false stops the iteration.
func (g *Groups) Each(fn func(key string, members []int) bool) {
	for _, k := range g.keys {
		if !fn(k, g.members[k]) {
			return
		}
	}
}

// Members returns the member indices for a key (nil if absent).
func (g *Groups) Members(key string) []int { return g.members[key] }

// DistinctCount returns, for each group, the number of distinct values
// of attribute a among the group's members. It is the core primitive
// of variable-CFD detection: a group with more than one distinct
// RHS value violates the embedded FD. Distinctness is computed over
// dictionary IDs with a single seen-set reused across groups.
func (g *Groups) DistinctCount(d *relation.Relation, a string) (map[string]int, error) {
	idxs, err := d.Schema().Indices([]string{a})
	if err != nil {
		return nil, err
	}
	col, _ := d.Encoded().Column(idxs[0])
	out := make(map[string]int, len(g.keys))
	seen := make(map[uint32]struct{}, 16)
	for _, k := range g.keys {
		clear(seen)
		for _, i := range g.members[k] {
			seen[col[i]] = struct{}{}
		}
		out[k] = len(seen)
	}
	return out, nil
}
