package relation

import (
	"fmt"
	"math/bits"
	"testing"
)

// checkDictPrefix asserts d holds exactly vals[:n] under dense IDs —
// Len, Val and Lookup — and none of vals[n:]. stride > 1 samples the
// IDs, always including the last few below n.
func checkDictPrefix(t *testing.T, label string, d *Dict, vals []string, n, stride int) {
	t.Helper()
	if d.Len() != n {
		t.Fatalf("%s: Len %d, want %d", label, d.Len(), n)
	}
	for id := 0; id < n; id++ {
		if id%stride != 0 && id < n-64 {
			continue
		}
		if got := d.Val(uint32(id)); got != vals[id] {
			t.Fatalf("%s: Val(%d) = %q, want %q", label, id, got, vals[id])
		}
		if got, ok := d.Lookup(vals[id]); !ok || got != uint32(id) {
			t.Fatalf("%s: Lookup(%q) = %d,%v, want %d", label, vals[id], got, ok, id)
		}
	}
	for id := n; id < len(vals) && id < n+64; id++ {
		if _, ok := d.Lookup(vals[id]); ok {
			t.Fatalf("%s: Lookup(%q) found a value interned after it", label, vals[id])
		}
	}
}

// TestChainKeepsRoot pins Chain's merge rule over a long stream of
// generations, each chaining one overlay of fresh values over a large
// root: the depth bound holds after every generation, the root is
// copied only once the overlays outgrow it, every captured generation
// keeps answering as it did, and the values copied into merged layers
// stay within 2·N·⌈log₂ N⌉ — where flattening the whole chain every
// maxChainDepth generations copies the root over and over.
func TestChainKeepsRoot(t *testing.T) {
	const rootVals, gens, perGen = 60000, 10000, 30
	vals := make([]string, rootVals, rootVals+gens*perGen) // vals[id]
	for i := range vals {
		vals[i] = fmt.Sprintf("r%d", i)
	}
	root, err := NewDictFromVals(vals[:rootVals:rootVals])
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		d *Dict
		n int
	}
	var snaps []snapshot
	seen := map[*Dict]bool{root: true}
	cur, bottom, copied := root, root, 0
	for g := 1; g <= gens; g++ {
		overlays := cur.Len() - bottom.Len()
		cur = Chain(cur)
		for k := 0; k < perGen; k++ {
			v := fmt.Sprintf("g%d.%d", g, k)
			if id := cur.ID(v); int(id) != len(vals) {
				t.Fatalf("gen %d: %q got id %d, want dense id %d", g, v, id, len(vals))
			}
			vals = append(vals, v)
		}
		if cur.depth > maxChainDepth {
			t.Fatalf("gen %d: depth %d past %d", g, cur.depth, maxChainDepth)
		}
		// Layers first seen below the fresh overlay are merge products:
		// everything they hold was copied.
		seen[cur] = true
		for e := cur.parent; e != nil && !seen[e]; e = e.parent {
			seen[e] = true
			copied += len(e.vals)
		}
		b := cur
		for b.parent != nil {
			b = b.parent
		}
		if b != bottom {
			if overlays <= bottom.Len() {
				t.Fatalf("gen %d: root of %d values copied while its overlays held %d", g, bottom.Len(), overlays)
			}
			bottom = b
		}
		if g%100 == 0 {
			snaps = append(snaps, snapshot{cur, cur.Len()})
		}
	}
	if bottom == root {
		t.Fatal("the overlays outgrew the root but it was never flattened")
	}
	for i, s := range snaps {
		checkDictPrefix(t, fmt.Sprintf("snapshot %d", i), s.d, vals, s.n, 17)
	}
	n := len(vals)
	if bound := 2 * n * bits.Len(uint(n-1)); copied > bound {
		t.Fatalf("merges copied %d values for %d interned, past 2·N·⌈log₂ N⌉ = %d", copied, n, bound)
	}
	t.Logf("%d generations, %d values: %d copied into merged layers", gens, n, copied)
}

// FuzzDictChain runs a byte script of interns, commits and snapshot
// captures against a growing dictionary and checks the chain contract:
// IDs are dense in first-interned order, the depth never passes
// maxChainDepth, and every captured generation still answers Len, Val
// and Lookup as it did when captured, however later commits chained,
// merged or flattened the layers below it. Per byte, b&7 picks:
//
//	0,1  queue a fresh value
//	2,3  queue the recurring value k<b>>3> (known after its first commit)
//	4    commit the queue through InternInserts (chains only when needed)
//	5    commit it through Chain and ID (always a new layer, even empty)
//	6,7  capture the current generation
func FuzzDictChain(f *testing.F) {
	f.Add([]byte{0, 4, 6, 0, 0, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6})
	f.Add([]byte{0, 1, 2, 4, 6, 10, 0, 4, 6, 0, 0, 0, 5, 7, 18, 4, 5, 0, 4, 0, 5, 0, 4, 0, 5, 0, 4, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		var (
			vals    []string
			idOf    = map[string]uint32{}
			pending []Tuple
			snaps   []*Dict
			lens    []int
		)
		cur := NewDict()
		for i, b := range script {
			switch b & 7 {
			case 0, 1:
				pending = append(pending, Tuple{fmt.Sprintf("f%d", i)})
			case 2, 3:
				pending = append(pending, Tuple{fmt.Sprintf("k%d", b>>3)})
			case 4, 5:
				var ids []uint32
				if b&7 == 4 {
					cur, ids = cur.InternInserts(nil, pending, 0)
				} else {
					cur = Chain(cur)
					for _, tu := range pending {
						ids = append(ids, cur.ID(tu[0]))
					}
				}
				for k, tu := range pending {
					want, ok := idOf[tu[0]]
					if !ok {
						want = uint32(len(vals))
						idOf[tu[0]] = want
						vals = append(vals, tu[0])
					}
					if ids[k] != want {
						t.Fatalf("op %d: %q got id %d, want %d", i, tu[0], ids[k], want)
					}
				}
				pending = pending[:0]
				if cur.depth > maxChainDepth {
					t.Fatalf("op %d: depth %d past %d", i, cur.depth, maxChainDepth)
				}
			case 6, 7:
				snaps, lens = append(snaps, cur), append(lens, len(vals))
			}
		}
		checkDictPrefix(t, "final", cur, vals, len(vals), 1)
		for k, s := range snaps {
			checkDictPrefix(t, fmt.Sprintf("snapshot %d", k), s, vals, lens[k], 1)
		}
	})
}
