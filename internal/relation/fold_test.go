package relation

import (
	"math/rand"
	"testing"
)

// BenchmarkFoldTiers compares the three composite-key fold
// implementations on one synthetic fold — 200K rows, 4K running
// groups, column cardinality 64 (num·card = 256K composites, inside
// the direct budget): the historical map[uint64]uint32 interner, the
// direct-index tier, and the open-addressing tier. DESIGN.md ablation
// 12 says how Fold.Column picks between the last two.
func BenchmarkFoldTiers(b *testing.B) {
	const rows, num, card = 200_000, 4096, 64
	rng := rand.New(rand.NewSource(1))
	base := make([]uint32, rows)
	col := make([]uint32, rows)
	for i := range base {
		base[i] = uint32(rng.Intn(num))
		col[i] = uint32(rng.Intn(card))
	}
	gids := make([]uint32, rows)

	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		stage := make(map[uint64]uint32, 256)
		for i := 0; i < b.N; i++ {
			copy(gids, base)
			clear(stage)
			next := uint32(0)
			for j := range gids {
				k := uint64(gids[j])<<32 | uint64(col[j])
				id, ok := stage[k]
				if !ok {
					id = next
					next++
					stage[k] = id
				}
				gids[j] = id
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		var st Fold
		for i := 0; i < b.N; i++ {
			copy(gids, base)
			st.foldDirect(gids, col, num, card)
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		var st Fold
		for i := 0; i < b.N; i++ {
			copy(gids, base)
			st.foldOpen(gids, col)
		}
	})
}

// TestFoldTiersAgree drives the same fold through the direct-index and
// open-addressing tiers and a map reference; all three must produce
// identical groupings (as partitions — IDs are assigned in first-seen
// order, so they match exactly).
func TestFoldTiersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		num := 1 + rng.Intn(40)
		card := 1 + rng.Intn(40)
		gids := make([]uint32, n)
		col := make([]uint32, n)
		for i := range gids {
			if rng.Intn(10) == 0 {
				gids[i] = NoGroup
			} else {
				gids[i] = uint32(rng.Intn(num))
			}
			col[i] = uint32(rng.Intn(card))
		}

		// Map reference.
		ref := append([]uint32(nil), gids...)
		stage := make(map[uint64]uint32)
		refNext := uint32(0)
		for i, g := range ref {
			if g == NoGroup {
				continue
			}
			k := uint64(g)<<32 | uint64(col[i])
			id, ok := stage[k]
			if !ok {
				id = refNext
				refNext++
				stage[k] = id
			}
			ref[i] = id
		}

		direct := append([]uint32(nil), gids...)
		var st1 Fold
		nd := st1.foldDirect(direct, col, num, card)
		open := append([]uint32(nil), gids...)
		var st2 Fold
		no := st2.foldOpen(open, col)

		if nd != int(refNext) || no != int(refNext) {
			t.Fatalf("trial %d: counts direct=%d open=%d ref=%d", trial, nd, no, refNext)
		}
		for i := range ref {
			if direct[i] != ref[i] || open[i] != ref[i] {
				t.Fatalf("trial %d row %d: direct=%d open=%d ref=%d", trial, i, direct[i], open[i], ref[i])
			}
		}
		// Retained lookup must replay the fold exactly.
		for i, g := range gids {
			if g == NoGroup {
				continue
			}
			if id, ok := st1.Lookup(g, col[i]); !ok || id != ref[i] {
				t.Fatalf("direct lookup(%d,%d) = %d,%v want %d", g, col[i], id, ok, ref[i])
			}
			if id, ok := st2.Lookup(g, col[i]); !ok || id != ref[i] {
				t.Fatalf("open lookup(%d,%d) = %d,%v want %d", g, col[i], id, ok, ref[i])
			}
		}
		// And absent composites must miss.
		if _, ok := st2.Lookup(uint32(num)+1, uint32(card)+1); ok {
			t.Fatal("open lookup invented a composite")
		}
	}
}

// TestFoldShrinks pins the retention bound: a Fold inflated past
// foldShrinkEntries drops its tables on Shrink, and keeps them under it.
func TestFoldShrinks(t *testing.T) {
	big := Fold{table: make([]uint32, foldShrinkEntries+1), keys: make([]uint64, foldShrinkEntries*2), vals: make([]uint32, foldShrinkEntries*2)}
	big.Shrink()
	if big.table != nil || big.keys != nil || big.vals != nil {
		t.Error("fold buffers past the bound were retained")
	}
	small := Fold{table: make([]uint32, 128)}
	small.Shrink()
	if small.table == nil {
		t.Error("a fold table under the bound was dropped")
	}
}
