package relation

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"unsafe"
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
// A layer holds no pointer per value (DESIGN.md ablation 25): its
// values sit back to back in one byte arena, value k at
// arena[offs[k]:offs[k+1]], and lookups probe an open-addressing table
// of local index + 1 (0 empty) tagged with the hash's top bits (entry),
// a power of two at least twice the values, hashed with hash/maphash
// over the bytes under the seed every layer of a chain shares. The offsets and the table share one backing
// array (meta). The arena is append-only — a byte once written is
// never written again, and growing it copies into a fresh array — so
// Val hands out strings that alias it and stay valid for as long as
// they are referenced.
//
// A Dict is not safe for concurrent mutation; each site owns its own.
type Dict struct {
	parent *Dict
	base   uint32 // parent chain length at chain time; IDs < base resolve below
	depth  int
	seed   maphash.Seed
	arena  []byte
	offs   []uint32 // len = values + 1, offs[0] = 0; cap = len(table)/2 + 1
	table  []uint32
}

// maxChainDepth bounds overlay chains: once a chain is this deep,
// Chain merges its top layers into one before chaining again, so
// Val/Lookup walk at most maxChainDepth+1 layers under arbitrarily long
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

// minTable is the smallest table a layer starts with: room for four
// values before it first grows.
const minTable = 8

// dictSeed is the hash seed of every chain a process builds.
var dictSeed = maphash.MakeSeed()

// NewDict creates an empty root dictionary.
func NewDict() *Dict { return newDict(dictSeed, 0, 0) }

// NewDictSized is NewDict with room for n values of size bytes in all,
// so a dictionary whose size is known up front (a received values
// section) allocates its arena and its index once.
func NewDictSized(n, size int) *Dict { return newDict(dictSeed, n, size) }

// newDict is an empty layer under seed, sized for n values of size
// bytes.
func newDict(seed maphash.Seed, n, size int) *Dict {
	d := &Dict{seed: seed}
	d.resize(tableFor(n), 0)
	if size > 0 {
		d.arena = make([]byte, 0, size)
	}
	return d
}

// tableFor is the table a layer of n values starts with.
func tableFor(n int) int {
	t := minTable
	for t < 2*n {
		t <<= 1
	}
	return t
}

// NewDictFromVals builds a dictionary whose IDs follow the order of
// vals. Duplicate values are rejected: they would make Lookup disagree
// with the ID vectors. The values are copied; vals is not kept.
func NewDictFromVals(vals []string) (*Dict, error) {
	size := 0
	for _, v := range vals {
		size += len(v)
	}
	d := NewDictSized(len(vals), size)
	for i, v := range vals {
		if id, added := d.intern(v, d.hash(v)); !added {
			return nil, fmt.Errorf("relation: dictionary value %q duplicated at ids %d and %d", v, id, i)
		}
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
	d := newDict(parent.seed, 0, 0)
	d.parent, d.base, d.depth = parent, uint32(parent.Len()), parent.depth+1
	return d
}

// merge copies the top layers of d's chain into one fresh layer in
// their place, leaving every source layer untouched. It walks down from
// d and takes at least two layers; it keeps the first overlay at least
// mergeRatio times the merged size, and the root unless the overlays
// together outgrow it — then the whole chain flattens into a fresh
// root.
func (d *Dict) merge() *Dict {
	low, n, size := d, d.local(), len(d.arena)
	for next := d.parent; next != nil; next = next.parent {
		keep := low != d && next.local() >= mergeRatio*n
		if next.parent == nil {
			keep = next.local() >= n
		}
		if keep {
			break
		}
		low, n, size = next, n+next.local(), size+len(next.arena)
	}
	var layers []*Dict // top first
	for e := d; e != low.parent; e = e.parent {
		layers = append(layers, e)
	}
	out := newDict(d.seed, n, size)
	out.parent, out.base, out.depth = low.parent, low.base, low.depth
	for _, e := range slices.Backward(layers) {
		for k := range e.local() {
			v := e.val(k)
			out.add(v, out.hash(v))
		}
	}
	return out
}

// local returns the number of values this layer holds.
func (d *Dict) local() int { return len(d.offs) - 1 }

// hash is v's hash under the chain's seed.
func (d *Dict) hash(v string) uint64 { return maphash.String(d.seed, v) }

// val returns this layer's value k, aliasing the arena.
func (d *Dict) val(k int) string {
	lo, hi := d.offs[k], d.offs[k+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&d.arena[lo], hi-lo)
}

// find probes this layer for v of hash h: its local index, or the
// empty slot where it would go.
func (d *Dict) find(v string, h uint64) (k int, slot int, ok bool) {
	mask, tag := uint32(len(d.table)-1), d.entry(h, -1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		e := d.table[i]
		if e == 0 {
			return 0, int(i), false
		}
		if e&^mask == tag {
			k := e&mask - 1
			if lo, hi := d.offs[k], d.offs[k+1]; int(hi-lo) == len(v) && string(d.arena[lo:hi]) == v {
				return int(k), int(i), true
			}
		}
	}
}

// entry is the table entry of local value k of hash h: k+1 in the low
// log₂ len(table) bits, which hold every index a table at most half
// full takes, and the top bits of h above them, so a probe passes most
// other values without reading their bytes.
func (d *Dict) entry(h uint64, k int) uint32 {
	shift := bits.TrailingZeros(uint(len(d.table)))
	return uint32(h>>(32+shift))<<shift | uint32(k+1)
}

// lookup is Lookup with v's hash known.
func (d *Dict) lookup(v string, h uint64) (uint32, bool) {
	for e := d; e != nil; e = e.parent {
		if k, _, ok := e.find(v, h); ok {
			return e.base + uint32(k), true
		}
	}
	return 0, false
}

// add appends v, of hash h and absent from the whole chain, to this
// layer and returns its ID. The bytes are copied: the layer never keeps
// the caller's string.
func (d *Dict) add(v string, h uint64) uint32 {
	_, slot, _ := d.find(v, h)
	return d.addAt(v, h, slot)
}

// addAt is add with v's empty slot in the table known.
func (d *Dict) addAt(v string, h uint64, slot int) uint32 {
	if len(d.offs) == cap(d.offs) {
		d.resize(2*len(d.table), d.local())
		_, slot, _ = d.find(v, h)
	}
	k := d.local()
	id := uint64(d.base) + uint64(k)
	if id >= math.MaxUint32 || len(d.arena)+len(v) > math.MaxUint32 {
		panic(fmt.Sprintf("relation: dictionary layer past %d values or 4 GiB", uint32(math.MaxUint32)))
	}
	if len(d.arena)+len(v) > cap(d.arena) {
		// Doubling, where append grows a large slice by a quarter: an
		// arena filled value by value copies at most itself once over.
		arena := make([]byte, len(d.arena), max(2*cap(d.arena), len(d.arena)+len(v), 64))
		copy(arena, d.arena)
		d.arena = arena
	}
	d.arena = append(d.arena, v...)
	d.offs = append(d.offs, uint32(len(d.arena)))
	d.table[slot] = d.entry(h, k)
	return uint32(id)
}

// intern returns v's ID, adding v, of hash h, to this layer when the
// chain lacks it, and reports whether it did: one probe of this layer
// finds v or the slot it takes.
func (d *Dict) intern(v string, h uint64) (uint32, bool) {
	k, slot, ok := d.find(v, h)
	if ok {
		return d.base + uint32(k), false
	}
	if d.parent != nil {
		if id, ok := d.parent.lookup(v, h); ok {
			return id, false
		}
	}
	return d.addAt(v, h, slot), true
}

// resize moves the layer's n values into a fresh meta array holding a
// table of t slots and room for t/2 values, and rehashes them.
func (d *Dict) resize(t, n int) {
	meta := make([]uint32, t+t/2+1)
	offs := meta[t : t+n+1 : len(meta)]
	if n > 0 {
		copy(offs, d.offs)
	}
	d.table, d.offs = meta[:t:t], offs
	mask := t - 1
	for k := range n {
		h := d.hash(d.val(k))
		i := int(h) & mask
		for d.table[i] != 0 {
			i = (i + 1) & mask
		}
		d.table[i] = d.entry(h, k)
	}
}

// ID returns the identifier for v, interning it on first sight. On a
// chained dictionary the value is interned into the top layer; lower
// layers are read, never written.
func (d *Dict) ID(v string) uint32 {
	id, _ := d.intern(v, d.hash(v))
	return id
}

// Add interns v unless the chain holds it already, reporting which:
// the ID v has and whether this call added it. It copies v, so a
// values section's reader interns each value straight from the
// section.
func (d *Dict) Add(v []byte) (uint32, bool) {
	s := unsafe.String(unsafe.SliceData(v), len(v)) // read only until copied
	return d.intern(s, d.hash(s))
}

// Lookup returns the identifier for v without interning;
// ok=false if v has never been seen anywhere in the chain.
func (d *Dict) Lookup(v string) (uint32, bool) { return d.lookup(v, d.hash(v)) }

// Val returns the string for identifier id. It aliases the dictionary's
// arena, which is never written where it has been read: the string
// stays valid however the dictionary grows, and keeps the layer's
// arena alive while it is referenced.
func (d *Dict) Val(id uint32) string {
	e := d
	for id < e.base {
		e = e.parent
	}
	return e.val(int(id - e.base))
}

// Len returns the number of distinct interned values across the chain.
func (d *Dict) Len() int { return int(d.base) + d.local() }

// Vals returns the interned values ordered by ID, in a fresh slice.
// The strings alias the arena (see Val). A hot path reads values by
// ID through Val instead.
func (d *Dict) Vals() []string {
	out := make([]string, d.Len())
	for e := d; e != nil; e = e.parent {
		for k := range e.local() {
			out[int(e.base)+k] = e.val(k)
		}
	}
	return out
}

// InternInserts is the one rule for growing a built column's
// dictionary under a delta. d is frozen — readers of the previous
// generation share it — so a value it already holds reuses its ID, and
// the first unseen value chains a fresh overlay over d (see Chain)
// that interns it and every later one, growing as it fills. Column col
// of ins is appended to ids; the dictionary returned is what the
// column reads through from now on: d itself when the inserts brought
// nothing new, so a stream of deltas over known values never deepens
// the chain. The dictionary copies what it takes in, so it never keeps
// a string of the inserts (which may share one wire section).
func (d *Dict) InternInserts(ids []uint32, ins []Tuple, col int) (*Dict, []uint32) {
	cur := d
	for _, t := range ins {
		v := t[col]
		h := cur.hash(v)
		id, ok := cur.lookup(v, h)
		if !ok {
			if cur == d {
				cur = Chain(d)
			}
			id = cur.add(v, h)
		}
		ids = append(ids, id)
	}
	return cur, ids
}
