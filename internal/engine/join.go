package engine

import (
	"fmt"

	"distcfd/internal/relation"
)

// joinIndex is the integer machinery shared by Join and SemiJoin: the
// right side's join-key columns are folded to dense, exact key IDs,
// and each left column's dictionary is translated into the right
// side's ID space once per distinct value. Probing is then pure
// integer work — no per-tuple string keys on either side.
type joinIndex struct {
	rgids  []uint32   // right row -> key id
	num    int        // number of distinct right keys
	trans  [][]uint32 // per join column: left dict id -> right dict id + 1 (0 = absent)
	lcols  [][]uint32 // left join-key columns
	stages []*relation.Fold
}

func newJoinIndex(left, right *relation.Relation, li, ri []int) *joinIndex {
	le, re := left.Encoded(), right.Encoded()
	ix := &joinIndex{}

	rcols := make([][]uint32, len(ri))
	rdicts := make([]*relation.Dict, len(ri))
	for j, c := range ri {
		rcols[j], rdicts[j] = re.Column(c)
	}
	ix.lcols = make([][]uint32, len(li))
	ix.trans = make([][]uint32, len(li))
	for j, c := range li {
		lcol, ldict := le.Column(c)
		ix.lcols[j] = lcol
		// Dictionary membership is not row membership: a shared
		// (ProjectRows) dictionary holds values its rows never carry,
		// so the translation must be restricted to IDs occurring in
		// the right column or probes would report phantom matches.
		occurs := make([]bool, rdicts[j].Len())
		for _, id := range rcols[j] {
			occurs[id] = true
		}
		t := make([]uint32, ldict.Len())
		for id := 0; id < ldict.Len(); id++ {
			if rid, ok := rdicts[j].Lookup(ldict.Val(uint32(id))); ok && occurs[rid] {
				t[id] = rid + 1
			}
		}
		ix.trans[j] = t
	}

	// Fold the right key columns to dense IDs, keeping each stage's
	// tables so left probes can walk the same path lookup-only.
	rows := re.Rows()
	ix.rgids = make([]uint32, rows)
	copy(ix.rgids, rcols[0])
	ix.num = rdicts[0].Len()
	if rows == 0 {
		ix.num = 0
	}
	for j, col := range rcols[1:] {
		stage := &relation.Fold{}
		ix.num = stage.Column(ix.rgids, col, ix.num, rdicts[j+1].Len())
		ix.stages = append(ix.stages, stage)
	}
	return ix
}

// probe maps left row i to the right key-ID space; ok=false when the
// left key does not occur on the right.
func (ix *joinIndex) probe(i int) (uint32, bool) {
	t := ix.trans[0][ix.lcols[0][i]]
	if t == 0 {
		return 0, false
	}
	g := t - 1
	for j, stage := range ix.stages {
		t := ix.trans[j+1][ix.lcols[j+1][i]]
		if t == 0 {
			return 0, false
		}
		id, ok := stage.Lookup(g, t-1)
		if !ok {
			return 0, false
		}
		g = id
	}
	return g, true
}

// Join computes the natural key join of two vertical fragments: both
// relations must carry the join attributes; the result schema is
// left's attributes followed by right's non-join attributes. It is the
// reconstruction operator D = ⋈ᵢ Dᵢ of Section II-B and the workhorse
// of vertical-partition detection.
func Join(left, right *relation.Relation, on []string, name string) (*relation.Relation, error) {
	li, err := left.Schema().Indices(on)
	if err != nil {
		return nil, fmt.Errorf("engine: join left: %w", err)
	}
	ri, err := right.Schema().Indices(on)
	if err != nil {
		return nil, fmt.Errorf("engine: join right: %w", err)
	}
	// Result schema: all of left + right minus join attrs.
	onSet := make(map[string]bool, len(on))
	for _, a := range on {
		onSet[a] = true
	}
	attrs := append([]string(nil), left.Schema().Attrs()...)
	var rightKeep []int
	for i, a := range right.Schema().Attrs() {
		if !onSet[a] {
			if left.Schema().HasAttr(a) {
				return nil, fmt.Errorf("engine: join: attribute %q in both inputs but not a join key", a)
			}
			attrs = append(attrs, a)
			rightKeep = append(rightKeep, i)
		}
	}
	var key []string
	key = append(key, left.Schema().Key()...)
	outSchema, err := relation.NewSchema(name, attrs, key...)
	if err != nil {
		return nil, err
	}

	if right.Len() == 0 || left.Len() == 0 {
		return relation.New(outSchema), nil
	}
	ix := newJoinIndex(left, right, li, ri)
	buckets := make([][]int, ix.num)
	for i, g := range ix.rgids {
		buckets[g] = append(buckets[g], i)
	}
	out := relation.New(outSchema)
	for i, lt := range left.Tuples() {
		g, ok := ix.probe(i)
		if !ok {
			continue
		}
		for _, j := range buckets[g] {
			rt := right.Tuple(j)
			row := make(relation.Tuple, 0, len(attrs))
			row = append(row, lt...)
			for _, ci := range rightKeep {
				row = append(row, rt[ci])
			}
			out.MustAppend(row)
		}
	}
	return out, nil
}

// JoinAll folds Join over fragments left to right; used to reconstruct
// a vertically partitioned relation from all its fragments.
func JoinAll(frags []*relation.Relation, on []string, name string) (*relation.Relation, error) {
	if len(frags) == 0 {
		return nil, fmt.Errorf("engine: JoinAll with no fragments")
	}
	acc := frags[0]
	for i := 1; i < len(frags); i++ {
		next, err := Join(acc, frags[i], on, name)
		if err != nil {
			return nil, err
		}
		acc = next
	}
	return acc, nil
}

// SemiJoin returns the tuples of left whose key appears in right
// (left ⋉ right on the given attributes). Shipping only the key column
// and semijoining is the classical communication-reduction technique
// the paper cites ([25]) for vertical detection.
func SemiJoin(left, right *relation.Relation, on []string) (*relation.Relation, error) {
	li, err := left.Schema().Indices(on)
	if err != nil {
		return nil, fmt.Errorf("engine: semijoin left: %w", err)
	}
	ri, err := right.Schema().Indices(on)
	if err != nil {
		return nil, fmt.Errorf("engine: semijoin right: %w", err)
	}
	out := relation.New(left.Schema())
	if right.Len() == 0 || left.Len() == 0 {
		return out, nil
	}
	// Every fold stage and translation entry comes from a right-side
	// row, so a successful probe IS membership — no extra key set.
	ix := newJoinIndex(left, right, li, ri)
	for i, t := range left.Tuples() {
		if _, ok := ix.probe(i); ok {
			out.MustAppend(t)
		}
	}
	return out, nil
}

// Union concatenates relations sharing a schema arity; the
// reconstruction operator D = ∪ᵢ Dᵢ for horizontal partitions.
func Union(name string, frags ...*relation.Relation) (*relation.Relation, error) {
	if len(frags) == 0 {
		return nil, fmt.Errorf("engine: Union with no fragments")
	}
	out := relation.NewWithCapacity(frags[0].Schema(), totalLen(frags))
	for _, f := range frags {
		if err := out.AppendAll(f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func totalLen(frags []*relation.Relation) int {
	n := 0
	for _, f := range frags {
		n += f.Len()
	}
	return n
}
