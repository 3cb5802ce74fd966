package relation

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"strings"
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
			copied += e.local()
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

// fuzzVal is the value a FuzzDictChain op names by its argument a
// (0..31) at script position i: the empty value, values of 0x00 and
// 0xff bytes, values sharing prefixes, or a value fresh at i.
func fuzzVal(i int, a byte) string {
	k := int(a >> 3)
	switch a % 8 {
	case 0:
		return ""
	case 1:
		return strings.Repeat("\x00", k+1)
	case 2:
		return "\xff" + strings.Repeat("\x00", k)
	case 3:
		return strings.Repeat("p", k+1)
	case 4:
		return fmt.Sprintf("pre%d\xff", k)
	default:
		return fmt.Sprintf("f%d", i)
	}
}

// FuzzDictChain runs a byte script of interleaved ID, Add,
// Lookup, Val and Chain calls, batched InternInserts commits and
// snapshot captures against a map[string]uint32 oracle, over values
// that are empty, share prefixes or hold 0x00 and 0xff bytes (fuzzVal).
// It checks the chain contract: IDs are dense in first-interned order,
// Lookup and Val agree with the oracle after every call, the depth
// never passes maxChainDepth however many layers Chain merged, a
// string Val returned reads the same however the arena grew after,
// and every captured generation still answers Len, Val and Lookup as
// it did when captured. A captured layer is frozen: ID chains over it
// first. Per byte b, b&7 picks the op and b>>3 its argument a:
//
//	0  ID(fuzzVal(a)) on the top layer
//	1  Add(fuzzVal(a)): added exactly when the oracle lacks it
//	2  Lookup(fuzzVal(a))
//	3  Val of the ID a (mod the values interned), kept for the end
//	4  Chain a fresh layer (past maxChainDepth it merges)
//	5  queue fuzzVal(a) for the next commit
//	6  commit the queue through InternInserts (chains only when needed)
//	7  capture the current generation
func FuzzDictChain(f *testing.F) {
	f.Add([]byte{0, 7, 5 | 6<<3, 6, 7, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0 | 7<<3, 7})
	f.Add([]byte{0, 1 << 3, 2 << 3, 3 << 3, 4 << 3, 12 << 3, 7, 4, 1 | 9<<3, 2, 2 | 10<<3, 3, 3 | 5<<3,
		5, 5 | 1<<3, 5 | 14<<3, 6, 7, 4, 0 | 6<<3, 4, 0 | 7<<3, 4, 0 | 14<<3, 4, 0 | 15<<3, 4, 0 | 22<<3,
		4, 0 | 23<<3, 4, 0 | 30<<3, 4, 0 | 31<<3, 7, 3 | 31<<3})
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
			taken   []string // Val results, vals[takenID[k]] when taken
			takenID []uint32
			frozen  bool
		)
		intern := func(i int, v string, id uint32) {
			want, ok := idOf[v]
			if !ok {
				want = uint32(len(vals))
				idOf[v] = want
				vals = append(vals, v)
			}
			if id != want {
				t.Fatalf("op %d: %q got id %d, want %d", i, v, id, want)
			}
		}
		cur := NewDict()
		for i, b := range script {
			a := b >> 3
			v := fuzzVal(i, a)
			switch b & 7 {
			case 0:
				if frozen {
					cur, frozen = Chain(cur), false
				}
				intern(i, v, cur.ID(v))
			case 1:
				if frozen {
					cur, frozen = Chain(cur), false
				}
				_, had := idOf[v]
				id, added := cur.Add([]byte(v))
				if added == had {
					t.Fatalf("op %d: Add(%q) added=%v, the oracle held it: %v", i, v, added, had)
				}
				intern(i, v, id)
			case 2:
				want, had := idOf[v]
				if id, ok := cur.Lookup(v); ok != had || ok && id != want {
					t.Fatalf("op %d: Lookup(%q) = %d,%v, want %d,%v", i, v, id, ok, want, had)
				}
			case 3:
				if len(vals) > 0 {
					id := uint32(int(a) % len(vals))
					got := cur.Val(id)
					if got != vals[id] {
						t.Fatalf("op %d: Val(%d) = %q, want %q", i, id, got, vals[id])
					}
					taken, takenID = append(taken, got), append(takenID, id)
				}
			case 4:
				cur, frozen = Chain(cur), false
			case 5:
				pending = append(pending, Tuple{v})
			case 6:
				next, ids := cur.InternInserts(nil, pending, 0)
				if next != cur {
					cur, frozen = next, false
				}
				for k, tu := range pending {
					intern(i, tu[0], ids[k])
				}
				pending = pending[:0]
			case 7:
				snaps, lens, frozen = append(snaps, cur), append(lens, len(vals)), true
			}
			if cur.depth > maxChainDepth {
				t.Fatalf("op %d: depth %d past %d", i, cur.depth, maxChainDepth)
			}
		}
		checkDictPrefix(t, "final", cur, vals, len(vals), 1)
		for k, s := range snaps {
			checkDictPrefix(t, fmt.Sprintf("snapshot %d", k), s, vals, lens[k], 1)
		}
		for k, v := range taken {
			if v != vals[takenID[k]] {
				t.Fatalf("a string Val returned for id %d now reads %q, want %q", takenID[k], v, vals[takenID[k]])
			}
		}
	})
}

// TestDictLayout pins what the arena layout promises under any hash
// seed: IDs follow insertion order however the table is laid out,
// through every growth of a layer and a chain's merges; a string Val
// returned before the arena grew reads the same after; and
// NewDictFromVals refuses a repeated value.
func TestDictLayout(t *testing.T) {
	const n = 5000
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%0*d", i%7, i) // lengths 0..6, shared prefixes
	}
	vals[0], vals[1] = "", "\x00\xff"
	for range 8 {
		d := newDict(maphash.MakeSeed(), 0, 0)
		early := make([]string, 8)
		for i, v := range vals {
			if id := d.ID(v); int(id) != i {
				t.Fatalf("value %d %q got id %d", i, v, id)
			}
			if i < len(early) {
				early[i] = d.Val(uint32(i))
			}
			if i == n/2 {
				d = Chain(d)
				for range maxChainDepth + 2 {
					d = Chain(d) // past maxChainDepth: the empty tops merge
				}
			}
		}
		for i, v := range early {
			if v != vals[i] {
				t.Fatalf("Val(%d) taken before the arena grew now reads %q, want %q", i, v, vals[i])
			}
		}
		checkDictPrefix(t, "layout", d, vals, n, 1)
	}
	if _, err := NewDictFromVals([]string{"a", "", "b", ""}); err == nil {
		t.Fatal("NewDictFromVals accepted a repeated value")
	}
}

// TestRowBuiltLayersStaySmall pins that a layer built from rows is
// sized by the values it holds, not by the rows: one new value over
// 2¹⁷ rows — a column encoded from rows, a row-backed part merged over
// an encoded one, a delta's inserts — leaves a layer of minimal size,
// since the column reads through it from then on.
func TestRowBuiltLayersStaySmall(t *testing.T) {
	s, err := NewSchema("R", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Tuple, 1<<17)
	for i := range rows {
		rows[i] = Tuple{"a"}
	}
	rows[0] = Tuple{"new"}
	small := func(label string, d *Dict, values int) {
		t.Helper()
		if d.local() != values || len(d.table) > minTable || cap(d.arena) > 64 {
			t.Fatalf("%s: layer of %d values keeps a %d-slot table and a %d-byte arena",
				label, d.local(), len(d.table), cap(d.arena))
		}
	}
	r, err := FromTuples(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	_, d := r.Encoded().Column(0)
	small("column encoded from rows", d, 2)

	base := MustFromRows(s, []string{"a"})
	base.Encoded().Column(0)
	if r, err = FromTuples(s, rows); err != nil { // not yet encoded
		t.Fatal(err)
	}
	out, err := Concat(base, r)
	if err != nil {
		t.Fatal(err)
	}
	_, d = out.Encoded().Column(0)
	small("merged row-backed part", d, 1)

	_, root := base.Encoded().Column(0)
	d, _ = root.InternInserts(nil, rows, 0)
	small("delta's inserts", d, 1)
}
