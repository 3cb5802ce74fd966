package relation

import (
	"fmt"
	"strings"
)

// Dict interns string values to dense uint32 identifiers. The engine
// uses it to dictionary-encode group-by keys: comparing and hashing
// fixed-width IDs is substantially cheaper than hashing full strings,
// which matters for the n·log n / hash-grouping `check` step the paper's
// cost model charges at every site.
//
// A Dict is either a root (parent == nil) or a chained overlay over a
// frozen parent layer: IDs below base live in the parent chain, IDs
// from base on in this layer. Chaining is how the incremental encoding
// path (Relation.Apply) grows a column's dictionary across generations
// without mutating the layer the previous generation's readers still
// hold — the parent is never written again once chained over. ID
// assignment stays append-only and stable across generations, which is
// what lets downstream ID-keyed state survive a delta.
//
// A Dict is not safe for concurrent mutation; each site owns its own.
type Dict struct {
	parent *Dict
	base   uint32 // parent chain length at chain time; IDs < base resolve below
	depth  int
	ids    map[string]uint32
	vals   []string
}

// maxChainDepth bounds overlay chains: once a chain is this deep,
// Chain merges its top layers into one before chaining again, so
// Val/Lookup walk at most maxChainDepth+1 maps under arbitrarily long
// delta sequences.
const maxChainDepth = 8

// mergeRatio is the geometric step of that merge: it swallows layers
// from the top down and stops at the first overlay at least mergeRatio
// times what it has gathered, so the overlays below the top stay
// roughly geometric in size and a merge copies what recent generations
// added, not the history. N values interned over 10⁴ generations copy
// a few times N in all (TestChainKeepsRoot bounds it by 2·N·⌈log₂ N⌉);
// flattening every maxChainDepth generations copied the root each time.
const mergeRatio = 2

// NewDict creates an empty root dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// NewDictFromVals builds a dictionary whose IDs follow the order of
// vals — the wire form of a shipped column. Duplicate values are
// rejected: they would make Lookup disagree with the ID vectors.
func NewDictFromVals(vals []string) (*Dict, error) {
	d := &Dict{ids: make(map[string]uint32, len(vals)), vals: vals}
	for i, v := range vals {
		if _, dup := d.ids[v]; dup {
			return nil, fmt.Errorf("relation: dictionary value %q duplicated at ids %d and %d", v, d.ids[v], i)
		}
		d.ids[v] = uint32(i)
	}
	return d, nil
}

// Chain returns a fresh overlay dictionary over parent. The parent
// must be frozen — never interned into again — which holds for every
// built column's dictionary. New values intern into the overlay with
// IDs continuing where the parent chain ends; parent IDs stay valid.
// A chain already maxChainDepth deep first has its top layers merged
// into one fresh layer (see merge), so lookups never degrade past
// maxChainDepth layers and the root is copied only once the overlays
// outgrow it.
func Chain(parent *Dict) *Dict {
	if parent.depth+1 > maxChainDepth {
		parent = parent.merge()
	}
	return overlay(parent)
}

// overlay returns a fresh layer over parent — a fresh root when parent
// is nil — without Chain's depth merge. Merge uses it for the values
// a merge's base dictionary lacks: the overlay lives one call, so
// merging a deep chain's top layers first would copy them on every
// merge for nothing.
func overlay(parent *Dict) *Dict {
	if parent == nil {
		return NewDict()
	}
	return &Dict{
		parent: parent,
		base:   uint32(parent.Len()),
		depth:  parent.depth + 1,
		ids:    make(map[string]uint32),
	}
}

// merge copies the top layers of d's chain into one fresh layer in
// their place, leaving every source layer untouched. It walks down from
// d and takes at least two layers; it keeps the first overlay at least
// mergeRatio times the merged size, and the root unless the overlays
// together outgrow it — then the whole chain flattens into a fresh
// root.
func (d *Dict) merge() *Dict {
	low, n := d, len(d.vals)
	for next := d.parent; next != nil; next = next.parent {
		keep := low != d && len(next.vals) >= mergeRatio*n
		if next.parent == nil {
			keep = len(next.vals) >= n
		}
		if keep {
			break
		}
		low, n = next, n+len(next.vals)
	}
	out := &Dict{parent: low.parent, base: low.base, depth: low.depth, ids: make(map[string]uint32, n), vals: make([]string, n)}
	for e := d; e != low.parent; e = e.parent {
		copy(out.vals[e.base-low.base:], e.vals)
	}
	for i, v := range out.vals {
		out.ids[v] = low.base + uint32(i)
	}
	return out
}

// ID returns the identifier for v, interning it on first sight. On a
// chained dictionary the value is interned into the top layer; lower
// layers are read, never written.
func (d *Dict) ID(v string) uint32 {
	if id, ok := d.Lookup(v); ok {
		return id
	}
	id := d.base + uint32(len(d.vals))
	d.ids[v] = id
	d.vals = append(d.vals, v)
	return id
}

// Lookup returns the identifier for v without interning;
// ok=false if v has never been seen anywhere in the chain.
func (d *Dict) Lookup(v string) (uint32, bool) {
	for e := d; e != nil; e = e.parent {
		if id, ok := e.ids[v]; ok {
			return id, true
		}
	}
	return 0, false
}

// Val returns the string for identifier id.
func (d *Dict) Val(id uint32) string {
	e := d
	for id < e.base {
		e = e.parent
	}
	return e.vals[id-e.base]
}

// Len returns the number of distinct interned values across the chain.
func (d *Dict) Len() int { return int(d.base) + len(d.vals) }

// Vals returns the interned values ordered by ID. For a root
// dictionary the internal slice is returned and must not be modified;
// a chained dictionary materializes the chain into a fresh slice.
func (d *Dict) Vals() []string {
	if d.parent == nil {
		return d.vals
	}
	out := make([]string, d.Len())
	for e := d; e != nil; e = e.parent {
		copy(out[e.base:], e.vals)
	}
	return out
}

// InternInserts is the one rule for growing a built column's
// dictionary under a delta. d is frozen — readers of the previous
// generation share it — so a value it already holds reuses its ID, and
// the first unseen value chains a fresh overlay over d (see Chain) that
// interns it and every later one. Column col of ins is appended to ids;
// the dictionary returned is what the column reads through from now
// on: d itself when the inserts brought nothing new, so a stream of
// deltas over known values never deepens the chain. A value the
// dictionary takes in is cloned: inserts that arrived in one wire
// section share its string, and the dictionary outlives the section.
func (d *Dict) InternInserts(ids []uint32, ins []Tuple, col int) (*Dict, []uint32) {
	cur := d
	for _, t := range ins {
		id, ok := cur.Lookup(t[col])
		if !ok {
			if cur == d {
				cur = Chain(d)
			}
			id = cur.ID(strings.Clone(t[col]))
		}
		ids = append(ids, id)
	}
	return cur, ids
}
