package engine

import (
	"math/rand"
	"testing"
)

// BenchmarkFoldTiers compares the three composite-key fold
// implementations on one synthetic fold — 200K rows, 4K running
// groups, column cardinality 64 (num·card = 256K composites, inside
// the direct budget): the historical map[uint64]uint32 interner, the
// direct-index tier, and the open-addressing tier. DESIGN.md ablation
// 12 says how foldColumn picks between the last two.
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
		var st foldStage
		for i := 0; i < b.N; i++ {
			copy(gids, base)
			st.foldDirect(gids, col, num, card)
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		var st foldStage
		for i := 0; i < b.N; i++ {
			copy(gids, base)
			st.foldOpen(gids, col)
		}
	})
}
