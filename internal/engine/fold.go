package engine

// The shared composite-key fold of the execution engine: merging the
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
// memberships do not depend on the tier. detect.go and the join index
// both fold through this one implementation.

const (
	// directFoldBudget is the hard cap on the direct tier's table
	// (entries, 4 bytes each): 4M entries = 16 MiB.
	directFoldBudget = 1 << 22

	// foldShrinkEntries bounds the capacity a reusable foldStage may
	// retain between uses: past it the buffers are dropped wholesale
	// (like the sites' serving caches), so one huge unit cannot
	// permanently inflate a long-lived compiled plan's scratch.
	foldShrinkEntries = 1 << 20
)

// foldStage is one materialized fold step. Embedded in the detection
// scratch it is reused (and rezeroed) across folds; the join index
// retains one per extra key column so probes can replay the fold
// lookup-only.
//
// A fold runs as begin (pick tier, clear tables) followed by any
// number of feed calls over consecutive row ranges: the interning
// counter persists across feeds, so streaming a column chunk by chunk
// from packed storage interns the same composites to the same dense
// IDs as one whole-column pass — a streamed source's folds are
// byte-identical to the in-memory ones. foldColumn wraps the pair for
// single-shot callers.
type foldStage struct {
	// Direct tier: key = gid·width + colID, table[key] = id+1 (0 =
	// absent). width > 0 marks the tier in use.
	width uint64
	table []uint32

	// Open-addressing tier: key = gid<<32 | colID; vals[slot] = id+1
	// (0 = empty slot), keys[slot] valid iff vals[slot] != 0.
	keys []uint64
	vals []uint32
	mask uint64

	// next counts interned composites across the feeds of one fold.
	next uint32
}

// hashFold spreads a composite key over the table. The multiplier is
// the 64-bit golden ratio; the top bits (well mixed by the multiply)
// are brought down before masking.
func hashFold(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 32
}

// lookup resolves a composite without interning; ok=false when the
// composite was never folded. Valid only after foldColumn filled the
// stage.
func (st *foldStage) lookup(g, c uint32) (uint32, bool) {
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

// shrink drops buffers grown past the retention bound; called when the
// owning scratch is returned to its pool.
func (st *foldStage) shrink() {
	if cap(st.table) > foldShrinkEntries {
		st.table = nil
	}
	if cap(st.vals) > foldShrinkEntries {
		st.keys, st.vals = nil, nil
	}
}

// foldColumn merges col into the running group IDs: every row's
// (gids[i], col[i]) composite is interned to a fresh dense ID, rows
// whose gid is the noGroup sentinel stay excluded. num bounds the
// current distinct gids, card the folded column's ID space (its
// dictionary cardinality) — both are exact upper bounds, which is what
// lets the direct tier size its table up front. st's buffers are
// reused across calls; the previous contents are discarded. Returns
// the new group count.
//
// Group IDs and column IDs are dense dictionary codes bounded by the
// interning relation's row count, so the noGroup sentinel
// (math.MaxUint32) can never occur as a real ID.
func foldColumn(gids, col []uint32, num, card int, st *foldStage) int {
	st.begin(num, card, len(gids))
	st.feed(gids, col)
	return st.count()
}

// begin starts a fold: num bounds the incoming distinct gids, card the
// folded column's ID space, totalRows the total rows the coming feed
// calls will cover (the open tier's insertion bound).
func (st *foldStage) begin(num, card, totalRows int) {
	st.next = 0
	if prod := uint64(num) * uint64(card); num > 0 && card > 0 &&
		prod <= directFoldBudget && prod <= uint64(8*totalRows+1024) {
		size := int(prod)
		if cap(st.table) < size {
			st.table = make([]uint32, size)
		} else {
			st.table = st.table[:size]
			clear(st.table)
		}
		st.width = uint64(card)
		return
	}
	// ≤ totalRows entries can be inserted; double for load factor ≤ ½.
	slots := 16
	for slots < 2*totalRows {
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
}

// feed merges one consecutive row range: every (gids[i], col[i])
// composite is interned to a dense ID continuing the fold's counter,
// rows whose gid is the noGroup sentinel stay excluded.
func (st *foldStage) feed(gids, col []uint32) {
	if st.width > 0 {
		st.feedDirect(gids, col)
	} else {
		st.feedOpen(gids, col)
	}
}

// count returns the composites interned so far.
func (st *foldStage) count() int { return int(st.next) }

func (st *foldStage) feedDirect(gids, col []uint32) {
	table, width := st.table, st.width
	next := st.next
	// Consecutive rows with the same (gid, colID) composite resolve to
	// the same dense ID, so an RLE run streamed off packed storage costs
	// one table access plus per-row compares. Interning is unaffected: a
	// repeat never interns a fresh ID.
	lastG, lastC, lastV := uint32(noGroup), uint32(0), uint32(0)
	for i, g := range gids {
		if g == noGroup {
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
	st.next = next
}

func (st *foldStage) feedOpen(gids, col []uint32) {
	keys, vals, mask := st.keys, st.vals, st.mask
	next := st.next
	// Same run memo as feedDirect: a repeated composite skips the hash
	// and probe entirely.
	lastG, lastC, lastV := uint32(noGroup), uint32(0), uint32(0)
	for i, g := range gids {
		if g == noGroup {
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
	st.next = next
}
