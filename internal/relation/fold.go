package relation

import "math"

// The shared composite-key fold of the execution engine and of a store
// site's grouped packer: merging the
// next key column into a running vector of dense group IDs. A Go map
// (`map[uint64]uint32`) would charge a hash, a bucket walk, and
// amortized rehash allocations per row — on the check(D, Σ) hot path
// that the paper's cost model bills at every site on every round — so
// the fold picks between two map-free tiers per call:
//
//   - direct indexing: the composite key space is num_groups × the
//     folded column's dictionary cardinality, both known up front; when
//     the product fits the budget, a flat table indexed by
//     gid·card + colID resolves each row with one load — no hashing at
//     all;
//   - open addressing: a power-of-two uint64→uint32 table on plain
//     slices with linear probing and a multiplicative hash, sized so
//     the load factor stays ≤ ½.
//
// Both tiers intern each distinct (gid, colID) composite to a fresh
// dense ID exactly as a map keyed on the composite would — no
// truncation, distinct composites never collide — so group counts and
// memberships do not depend on the tier. A fold takes one whole column
// in one call, Fold.Column; the engine's kernel and join index and
// colstore's grouped packer all fold through it.

// NoGroup marks rows a fold leaves out of the grouping (the kernel's
// rows no live pattern admits). Group IDs are dense, bounded by the row
// count, so the sentinel can never collide.
const NoGroup = math.MaxUint32

const (
	// directFoldBudget is the hard cap on the direct tier's table
	// (entries, 4 bytes each): 4M entries = 16 MiB.
	directFoldBudget = 1 << 22

	// foldShrinkEntries bounds the capacity a reusable Fold may
	// retain between uses: past it the buffers are dropped wholesale
	// (like the sites' serving caches), so one huge unit cannot
	// permanently inflate a long-lived compiled plan's scratch.
	foldShrinkEntries = 1 << 20
)

// Fold is one materialized fold step. Embedded in the detection
// scratch it is reused (and rezeroed) across folds; the join index
// retains one per extra key column so probes can replay the fold
// lookup-only. The zero value is ready to use.
type Fold struct {
	// Direct tier: key = gid·width + colID, table[key] = id+1 (0 =
	// absent). width > 0 marks the tier in use.
	width uint64
	table []uint32

	// Open-addressing tier: key = gid<<32 | colID; vals[slot] = id+1
	// (0 = empty slot), keys[slot] valid iff vals[slot] != 0.
	keys []uint64
	vals []uint32
	mask uint64
}

// hashFold spreads a composite key over the table. The multiplier is
// the 64-bit golden ratio; the top bits (well mixed by the multiply)
// are brought down before masking.
func hashFold(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 32
}

// Lookup resolves a composite without interning; ok=false when the
// composite was never folded. Valid only after Column filled the
// stage.
func (st *Fold) Lookup(g, c uint32) (uint32, bool) {
	if st.width > 0 {
		v := st.table[uint64(g)*st.width+uint64(c)]
		return v - 1, v != 0
	}
	k := uint64(g)<<32 | uint64(c)
	for slot := hashFold(k) & st.mask; ; slot = (slot + 1) & st.mask {
		v := st.vals[slot]
		if v == 0 {
			return 0, false
		}
		if st.keys[slot] == k {
			return v - 1, true
		}
	}
}

// Shrink drops buffers grown past the retention bound; called when the
// owning scratch is returned to its pool.
func (st *Fold) Shrink() {
	if cap(st.table) > foldShrinkEntries {
		st.table = nil
	}
	if cap(st.vals) > foldShrinkEntries {
		st.keys, st.vals = nil, nil
	}
}

// Column merges col into the running group IDs: every row's
// (gids[i], col[i]) composite is interned to a fresh dense ID, in
// first-occurrence order; rows whose gid is the NoGroup sentinel stay
// excluded. num bounds the
// current distinct gids, card the folded column's ID space (its
// dictionary cardinality) — both are exact upper bounds, which is what
// lets the direct tier size its table up front. st's buffers are
// reused across calls; the previous contents are discarded. Returns
// the new group count.
//
// Group IDs and column IDs are dense dictionary codes bounded by the
// interning relation's row count, so the NoGroup sentinel can never
// occur as a real ID.
func (st *Fold) Column(gids, col []uint32, num, card int) int {
	if prod := uint64(num) * uint64(card); num > 0 && card > 0 &&
		prod <= directFoldBudget && prod <= uint64(8*len(gids)+1024) {
		return st.foldDirect(gids, col, num, card)
	}
	return st.foldOpen(gids, col)
}

// foldDirect is Column's direct tier, over a num·card table.
func (st *Fold) foldDirect(gids, col []uint32, num, card int) int {
	size := num * card
	if cap(st.table) < size {
		st.table = make([]uint32, size)
	} else {
		st.table = st.table[:size]
		clear(st.table)
	}
	st.width = uint64(card)
	table, width := st.table, st.width
	next := uint32(0)
	// Consecutive rows with the same (gid, colID) composite — runs in a
	// sorted or low-cardinality column — resolve to the same dense ID, so
	// a run costs one table access plus per-row compares. Interning is
	// unaffected: a repeat never interns a fresh ID.
	lastG, lastC, lastV := uint32(NoGroup), uint32(0), uint32(0)
	for i, g := range gids {
		if g == NoGroup {
			continue
		}
		c := col[i]
		if g == lastG && c == lastC {
			gids[i] = lastV
			continue
		}
		k := uint64(g)*width + uint64(c)
		v := table[k]
		if v == 0 {
			next++
			v = next
			table[k] = v
		}
		gids[i] = v - 1
		lastG, lastC, lastV = g, c, v-1
	}
	return int(next)
}

// foldOpen is Column's open-addressing tier.
func (st *Fold) foldOpen(gids, col []uint32) int {
	// ≤ len(gids) entries can be inserted; double for load factor ≤ ½.
	slots := 16
	for slots < 2*len(gids) {
		slots <<= 1
	}
	if cap(st.vals) < slots {
		st.keys = make([]uint64, slots)
		st.vals = make([]uint32, slots)
	} else {
		st.keys = st.keys[:slots]
		st.vals = st.vals[:slots]
		clear(st.vals)
	}
	st.width = 0
	st.mask = uint64(slots - 1)
	keys, vals, mask := st.keys, st.vals, st.mask
	next := uint32(0)
	// Same run memo as foldDirect: a repeated composite skips the hash
	// and probe entirely.
	lastG, lastC, lastV := uint32(NoGroup), uint32(0), uint32(0)
	for i, g := range gids {
		if g == NoGroup {
			continue
		}
		c := col[i]
		if g == lastG && c == lastC {
			gids[i] = lastV
			continue
		}
		lastG, lastC = g, c
		k := uint64(g)<<32 | uint64(c)
		slot := hashFold(k) & mask
		for {
			v := vals[slot]
			if v == 0 {
				next++
				keys[slot] = k
				vals[slot] = next
				gids[i] = next - 1
				break
			}
			if keys[slot] == k {
				gids[i] = v - 1
				break
			}
			slot = (slot + 1) & mask
		}
		lastV = gids[i]
	}
	return int(next)
}
