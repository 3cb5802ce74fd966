package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func deltaSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("D", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// applyOracle re-implements Apply's tuple semantics independently:
// swap-with-last deletion in descending index order, then appends.
func applyOracle(tuples []Tuple, d Delta) []Tuple {
	out := append([]Tuple(nil), tuples...)
	idx := append([]int(nil), d.Deletes...)
	sort.Sort(sort.Reverse(sort.IntSlice(idx)))
	for _, di := range idx {
		last := len(out) - 1
		out[di] = out[last]
		out = out[:last]
	}
	return append(out, d.Inserts...)
}

func TestApplyDeletesInsertsAndReinsertedValues(t *testing.T) {
	r := MustFromRows(deltaSchema(t),
		[]string{"x", "1"}, []string{"y", "2"}, []string{"z", "3"}, []string{"x", "4"})
	// Force the encoded view so Apply exercises the maintenance path.
	col0, dict0 := r.Encoded().Column(0)
	if got := dict0.Len(); got != 3 {
		t.Fatalf("initial dict: %d distinct, want 3", got)
	}
	if len(col0) != 4 {
		t.Fatalf("initial column: %d rows", len(col0))
	}

	// Delete both "x" rows, insert a fresh value and a re-inserted "x".
	removed, err := r.Apply(Delta{
		Deletes: []int{0, 3},
		Inserts: []Tuple{{"w", "5"}, {"x", "6"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 || removed[0][0] != "x" || removed[1][0] != "x" {
		t.Fatalf("removed = %v, want the two x-rows", removed)
	}
	want := applyOracle([]Tuple{{"x", "1"}, {"y", "2"}, {"z", "3"}, {"x", "4"}},
		Delta{Deletes: []int{0, 3}, Inserts: []Tuple{{"w", "5"}, {"x", "6"}}})
	if r.Len() != len(want) {
		t.Fatalf("len = %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if !r.Tuple(i).Equal(w) {
			t.Fatalf("row %d = %v, want %v", i, r.Tuple(i), w)
		}
	}

	// The maintained column matches a from-scratch encoding, and the
	// re-inserted "x" resolves to its original, still-valid ID.
	e := r.Encoded()
	col, dict := e.Column(0)
	for i := 0; i < r.Len(); i++ {
		if dict.Val(col[i]) != r.Tuple(i)[0] {
			t.Fatalf("row %d decodes to %q, want %q", i, dict.Val(col[i]), r.Tuple(i)[0])
		}
	}
	xid, ok := dict.Lookup("x")
	if !ok {
		t.Fatal("re-inserted value lost from dictionary")
	}
	oldX, _ := dict0.Lookup("x")
	if xid != oldX {
		t.Fatalf("re-inserted x got id %d, want stable id %d", xid, oldX)
	}
}

func TestApplyDictionaryGrowthAcrossGenerations(t *testing.T) {
	r := MustFromRows(deltaSchema(t), []string{"v0", "0"})
	_, d0 := r.Encoded().Column(0)
	baseLen := d0.Len()
	// Many generations of fresh values: IDs must stay dense and stable,
	// and chain flattening must keep lookups exact.
	for g := 1; g <= 40; g++ {
		if _, err := r.Apply(Delta{Inserts: []Tuple{{fmt.Sprintf("v%d", g), fmt.Sprint(g)}}}); err != nil {
			t.Fatal(err)
		}
	}
	e := r.Encoded()
	col, dict := e.Column(0)
	if dict.Len() != baseLen+40 {
		t.Fatalf("dictionary grew to %d, want %d", dict.Len(), baseLen+40)
	}
	for g := 0; g <= 40; g++ {
		v := fmt.Sprintf("v%d", g)
		id, ok := dict.Lookup(v)
		if !ok || dict.Val(id) != v {
			t.Fatalf("value %q lost across generations (ok=%v)", v, ok)
		}
		if int(col[g]) != g {
			t.Fatalf("row %d has id %d, want stable dense id %d", g, col[g], g)
		}
	}
	// The wire form of the grown column still round-trips.
	dicts, cols := e.CompactColumns()
	if len(dicts[0]) != 41 || len(cols[0]) != 41 {
		t.Fatalf("compacted column %d values / %d rows, want 41/41", len(dicts[0]), len(cols[0]))
	}
}

// TestInternInserts pins the copy-on-write rule both Encoded.applyDelta
// and the store-backed overlay grow a column by: known values reuse
// the frozen dictionary as it is, the first unseen value chains one
// overlay for the whole batch, and the frozen layer is never written.
func TestInternInserts(t *testing.T) {
	d := NewDict()
	d.ID("a")
	d.ID("b")
	same, ids := d.InternInserts([]uint32{9}, []Tuple{{"-", "b"}, {"-", "a"}}, 1)
	if same != d || !reflect.DeepEqual(ids, []uint32{9, 1, 0}) {
		t.Fatalf("known values: dict changed=%v ids=%v, want the same dict and [9 1 0]", same != d, ids)
	}
	grown, ids := d.InternInserts(nil, []Tuple{{"a"}, {"c"}, {"d"}, {"c"}}, 0)
	if grown == d || grown.depth != 1 || grown.parent != d {
		t.Fatalf("unseen values: depth %d over parent %p, want one overlay over %p", grown.depth, grown.parent, d)
	}
	if !reflect.DeepEqual(ids, []uint32{0, 2, 3, 2}) {
		t.Fatalf("ids = %v, want [0 2 3 2]", ids)
	}
	if d.Len() != 2 {
		t.Fatalf("frozen layer grew to %d values", d.Len())
	}
	// A long stream over known values never deepens the chain.
	cur := grown
	for g := 0; g < 3*maxChainDepth; g++ {
		cur, _ = cur.InternInserts(nil, []Tuple{{"c"}, {"a"}}, 0)
	}
	if cur != grown {
		t.Fatalf("known-value deltas re-chained: depth %d", cur.depth)
	}
}

func TestApplyErrors(t *testing.T) {
	r := MustFromRows(deltaSchema(t), []string{"a", "1"}, []string{"b", "2"})
	if _, err := r.Apply(Delta{Deletes: []int{2}}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if _, err := r.Apply(Delta{Deletes: []int{0, 0}}); err == nil {
		t.Fatal("duplicate delete accepted")
	}
	if _, err := r.Apply(Delta{Inserts: []Tuple{{"only-one"}}}); err == nil {
		t.Fatal("arity-mismatched insert accepted")
	}
	if r.Len() != 2 {
		t.Fatalf("failed Apply mutated the relation: len %d", r.Len())
	}
}

// TestApplyConcurrentReaders pins the generation contract under -race:
// readers working through a captured Encoded snapshot — column access,
// payload modeling, wire compaction — run concurrently with a writer
// applying deltas (inserts and deletes), because Apply never mutates
// memory a previous generation can reach.
func TestApplyConcurrentReaders(t *testing.T) {
	r := MustFromRows(deltaSchema(t),
		[]string{"a", "1"}, []string{"b", "2"}, []string{"c", "3"}, []string{"d", "4"})
	r.Encoded().Column(0) // build ahead so maintenance, not laziness, is exercised

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := r.Encoded() // snapshot: consistent for this iteration
				rows := e.Rows()
				col, dict := e.Column(0)
				for i := 0; i < rows; i++ {
					_ = dict.Val(col[i])
				}
				_, col1 := e.Column(1)
				_ = col1
				if w%2 == 0 {
					e.PayloadSizes()
				} else {
					e.CompactColumns()
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 300; g++ {
		d := Delta{Inserts: []Tuple{{fmt.Sprintf("g%d", g), fmt.Sprint(g)}}}
		if n := r.Len(); n > 2 && rng.Intn(2) == 0 {
			d.Deletes = []int{rng.Intn(n)}
		}
		if _, err := r.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Final state still decodes consistently.
	e := r.Encoded()
	col, dict := e.Column(0)
	for i := 0; i < r.Len(); i++ {
		if dict.Val(col[i]) != r.Tuple(i)[0] {
			t.Fatalf("row %d decodes to %q, want %q", i, dict.Val(col[i]), r.Tuple(i)[0])
		}
	}
}

// TestApplyMatchesFromScratchEncoding drives randomized delta sequences
// and checks every generation's maintained view against a from-scratch
// encoding of the same tuples.
func TestApplyMatchesFromScratchEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := MustFromRows(deltaSchema(t), []string{"s0", "t0"})
	r.Encoded().Column(0)
	r.Encoded().Column(1)
	for step := 0; step < 60; step++ {
		var d Delta
		for k := rng.Intn(4); k > 0; k-- {
			d.Inserts = append(d.Inserts, Tuple{
				fmt.Sprintf("s%d", rng.Intn(8)), fmt.Sprintf("t%d", rng.Intn(5))})
		}
		if n := r.Len(); n > 0 {
			seen := map[int]bool{}
			for k := rng.Intn(min(3, n) + 1); k > 0; k-- {
				idx := rng.Intn(n)
				if !seen[idx] {
					seen[idx] = true
					d.Deletes = append(d.Deletes, idx)
				}
			}
		}
		if _, err := r.Apply(d); err != nil {
			t.Fatal(err)
		}
		e := r.Encoded()
		fresh, err := FromTuples(r.Schema(), r.Tuples())
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			col, dict := e.Column(c)
			fcol, fdict := fresh.Encoded().Column(c)
			if len(col) != len(fcol) {
				t.Fatalf("step %d col %d: %d rows vs fresh %d", step, c, len(col), len(fcol))
			}
			for i := range col {
				if dict.Val(col[i]) != fdict.Val(fcol[i]) {
					t.Fatalf("step %d col %d row %d: %q vs fresh %q",
						step, c, i, dict.Val(col[i]), fdict.Val(fcol[i]))
				}
			}
			raw, enc := e.PayloadSizes()
			fraw, fenc := fresh.Encoded().PayloadSizes()
			if raw != fraw || enc != fenc {
				t.Fatalf("step %d: payload sizes (%d,%d) vs fresh (%d,%d)", step, raw, enc, fraw, fenc)
			}
		}
	}
}
