package remote

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"distcfd/internal/colstore"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// emittedForm reads back which of the three payloads a WireRelation
// carries.
func emittedForm(w *WireRelation) dist.WireForm {
	switch {
	case w.Packed != nil:
		return dist.PackedForm
	case w.Cols != nil:
		return dist.ColumnForm
	}
	return dist.RowForm
}

// uniqueRelation has no repeated value anywhere: the row form wins.
func uniqueRelation(rows int) *relation.Relation {
	r := relation.New(relation.MustSchema("U", []string{"a", "b"}))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Tuple{fmt.Sprintf("a%06d", i), fmt.Sprintf("b%06d", i)})
	}
	return r
}

// allColumns returns r's encoded columns, the input of PackColumns.
func allColumns(r *relation.Relation) ([]*relation.Dict, [][]uint32) {
	e := r.Encoded()
	dicts := make([]*relation.Dict, e.NumColumns())
	cols := make([][]uint32, e.NumColumns())
	for j := range cols {
		cols[j], dicts[j] = e.Column(j)
	}
	return dicts, cols
}

// wireKinds renders src every way a relation reaches a shipper:
// tuple-built, adopted from dict+ID columns, carrying a packed provider
// (PackColumns, and PackBase over a written fragment), stored as a
// packed payload, and that one again with the payload detached.
func wireKinds(t *testing.T, src *relation.Relation) map[string]*relation.Relation {
	t.Helper()
	out := map[string]*relation.Relation{"tuples": src.Clone()}

	dicts, cols := src.Encoded().CompactColumns()
	fromCols, err := relation.FromColumns(src.Schema(), dicts, cols, src.Len())
	if err != nil {
		t.Fatal(err)
	}
	out["FromColumns"] = fromCols

	out["extract PackColumns"] = packedExtract(t, src)

	path := filepath.Join(t.TempDir(), "fragment.col")
	if _, err := colstore.WriteRelation(path, src); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	all := make([]int, f.NumColumns())
	for j := range all {
		all[j] = j
	}
	base, err := f.PackBase(all)
	if err != nil {
		t.Fatal(err)
	}
	if out["extract PackBase"], err = relation.FromPackedExtract(src.Schema(), base); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"packed-backed", "packed-backed, dropped"} {
		pd, pc := allColumns(src)
		p, err := colstore.PackColumns(pd, pc, src.Len())
		if err != nil {
			t.Fatal(err)
		}
		backed, err := relation.FromPackedReader(src.Schema(), p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = backed
	}
	out["packed-backed, dropped"].DropPacked()
	return out
}

// TestWireFormChooserAgreement is the one-chooser property: for every
// way a relation reaches a shipper, the form ToWire emits is the form
// dist.ChooseWireForm named and dist.RelationBytes is that form's
// modeled size — computed here from the relation, not from the chooser.
// A relation that is not a payload adopted off the wire gets the
// smallest of its forms, a packed extract's payload among them; an
// adopted one ships as the payload it is; and what a sender shipped
// packed, the receiver re-ships and bills identically.
func TestWireFormChooserAgreement(t *testing.T) {
	sources := map[string]*relation.Relation{
		"unique":     uniqueRelation(300),
		"emp":        workload.EMPData(),
		"repetitive": workload.Cust(workload.CustConfig{N: 5000, Seed: 7}),
	}
	seen := map[dist.WireForm]bool{}
	for sname, src := range sources {
		for kind, r := range wireKinds(t, src) {
			name := sname + "/" + kind
			form, n := dist.ChooseWireForm(r)
			if got := dist.RelationBytes(r); got != n {
				t.Errorf("%s: RelationBytes = %d, chooser says %d", name, got, n)
			}
			w := ToWire(r)
			if got := emittedForm(w); got != form {
				t.Errorf("%s: ToWire emitted form %d, chooser named %d", name, got, form)
			}
			seen[form] = true

			raw, enc := naiveSizes(r)
			sizes := map[dist.WireForm]int64{dist.RowForm: raw, dist.ColumnForm: enc}
			pr, adopted := r.PackedPayload()
			if pr != nil {
				sizes[dist.PackedForm] = pr.PackedSize()
			}
			if want, ok := sizes[form]; !ok || n != want {
				t.Errorf("%s: billed %d for form %d, whose modeled size is %d (attached: %v)", name, n, form, want, ok)
			}
			if adopted {
				if form != dist.PackedForm {
					t.Errorf("%s: a packed payload must ship as itself, chooser named %d", name, form)
				}
			} else {
				for other, size := range sizes {
					if size < n {
						t.Errorf("%s: form %d models %d bytes, smaller than the chosen form %d at %d", name, other, size, form, n)
					}
				}
			}

			back, err := FromWire(w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !back.SameTuples(src) {
				t.Errorf("%s: round trip lost data", name)
			}
			if form == dist.PackedForm {
				if rf, rn := dist.ChooseWireForm(back); rf != form || rn != n {
					t.Errorf("%s: relay re-chose (%d, %d bytes), sender chose (%d, %d bytes)", name, rf, rn, form, n)
				}
			}
		}
	}
	for _, f := range []dist.WireForm{dist.RowForm, dist.ColumnForm, dist.PackedForm} {
		if !seen[f] {
			t.Errorf("no fixture shipped in form %d", f)
		}
	}
}

// naiveSizes prices r's bag in the row and dict+ID forms the obvious
// way, independent of the renumbering the code prices with: per column,
// a map[string]int over Tuples(), a counted relation's row counted as
// many times as its count; each cell costs its value's length plus
// one in the row form, and each distinct value its length plus one
// plus four bytes a cell in the dict+ID form.
func naiveSizes(r *relation.Relation) (raw, encoded int64) {
	for j := 0; j < r.Schema().Arity(); j++ {
		count := map[string]int{}
		for i, t := range r.Tuples() {
			n := 1
			if cs := r.Counts(); cs != nil {
				n = int(cs[i])
			}
			count[t[j]] += n
		}
		for v, n := range count {
			raw += int64(n) * int64(len(v)+1)
			encoded += int64(len(v)+1) + 4*int64(n)
		}
	}
	return raw, encoded
}

// emittedBytes is the modeled size of what w carries, read off the
// payload itself: each value of the row form, and each dictionary value
// of the dict+ID form, its length plus one, four bytes a cell ID, and
// the packed form's dictionary sections and chunks as they are.
func emittedBytes(t *testing.T, w *WireRelation) int64 {
	t.Helper()
	var n int64
	switch emittedForm(w) {
	case dist.PackedForm:
		for _, c := range w.Packed.Cols {
			n += int64(len(c.Dict))
			for _, chunk := range c.Chunks {
				n += int64(len(chunk))
			}
		}
		return n
	case dist.ColumnForm:
		dicts, err := colstore.DecodeDicts(w.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		for j, d := range dicts {
			for _, v := range d.Vals() {
				n += int64(len(v)) + 1
			}
			n += 4 * int64(len(w.Cols[j]))
		}
		return n
	}
	if w.Rows == 0 {
		return 0
	}
	vals, err := colstore.DecodeDictSection(w.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		n += int64(len(v)) + 1
	}
	return n
}

// TestRelayBillsWhatShips: a relation is billed (dist.RelationBytes)
// exactly the bytes ToWire emits for it, and so is what a receiver
// adopts from those bytes and ships on, as the driver relays an
// extract — for every way a relation reaches a shipper and every form.
// A dict+ID payload whose dictionary holds a value no row uses would
// break it at the relay (it ships the dictionary as it came, billed for
// the values present), so FromWire refuses one.
func TestRelayBillsWhatShips(t *testing.T) {
	seen := map[dist.WireForm]bool{}
	for sname, src := range map[string]*relation.Relation{
		"unique":     uniqueRelation(300),
		"repetitive": workload.Cust(workload.CustConfig{N: 3000, Seed: 5}),
	} {
		for kind, r := range wireKinds(t, src) {
			name := sname + "/" + kind
			w := ToWire(r)
			if got, want := dist.RelationBytes(r), emittedBytes(t, w); got != want {
				t.Errorf("%s: billed %d, ToWire emitted %d", name, got, want)
			}
			back, err := FromWire(w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rw := ToWire(back)
			if got, want := dist.RelationBytes(back), emittedBytes(t, rw); got != want {
				t.Errorf("%s relayed in form %d: billed %d, ToWire emitted %d", name, emittedForm(rw), got, want)
			}
			seen[emittedForm(rw)] = true
		}
	}
	if len(seen) != 3 {
		t.Errorf("relays shipped forms %v, want all three", seen)
	}
	w := ToWire(uniqueRelation(3))
	w.Tuples, w.Cols = nil, [][]uint32{{0, 1, 2}, {0, 1, 2}}
	w.Dicts = [][]byte{colstore.EncodeDictSection(nil, []string{"a0", "a1", "a2", "spare"}),
		colstore.EncodeDictSection(nil, []string{"b0", "b1", "b2"})}
	if _, err := FromWire(w); err == nil {
		t.Error("a dict+ID payload with a value no row uses was adopted")
	}
}

// packedBacked builds a rows-row relation stored as a verified packed
// payload, the way FromWire adopts one.
func packedBacked(t *testing.T, p *colstore.Packed) *relation.Relation {
	t.Helper()
	r, err := relation.FromPackedReader(workload.CustSchema(), p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRelayShipsPackedWithoutDecoding pins the relay hop of a packed
// block: the driver re-ships the payload it received — the wire chunks
// are the received byte slices themselves — and the cost of doing so
// does not depend on the row count: the same number of allocations for
// 4 K and 64 K rows, and far less than one byte per row (materializing
// a single column costs four). After DropPacked the relation ships
// dict+ID.
func TestRelayShipsPackedWithoutDecoding(t *testing.T) {
	payload := func(rows int) *colstore.Packed {
		dicts, cols := allColumns(workload.Cust(workload.CustConfig{N: rows, Seed: 3}))
		p, err := colstore.PackColumns(dicts, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small, large := payload(4_000), payload(64_000)

	w := ToWire(packedBacked(t, large))
	if w.Packed == nil || w.Rows != 64_000 {
		t.Fatalf("a packed-backed relation must ship packed (rows=%d, packed=%v)", w.Rows, w.Packed != nil)
	}
	for j, wc := range w.Packed.Cols {
		pc := large.Column(j)
		if len(wc.Chunks) != len(pc.Chunks) || &wc.Dict[0] != &pc.Dict[0] {
			t.Fatalf("column %d: wire column is not the received one", j)
		}
		for k := range wc.Chunks {
			if &wc.Chunks[k][0] != &pc.Chunks[k][0] {
				t.Fatalf("column %d chunk %d: payload was copied or re-encoded", j, k)
			}
		}
	}

	relay := func(p *colstore.Packed) func() { return func() { ToWire(packedBacked(t, p)) } }
	allocsSmall, allocsLarge := testing.AllocsPerRun(5, relay(small)), testing.AllocsPerRun(5, relay(large))
	if allocsSmall != allocsLarge {
		t.Errorf("relay allocations grow with the row count: %v at 4K rows, %v at 64K", allocsSmall, allocsLarge)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	relay(large)()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64_000 {
		t.Errorf("relaying 64K rows allocated %d bytes: a column was materialized", got)
	}

	dropped := packedBacked(t, large)
	dropped.DropPacked()
	if w := ToWire(dropped); w.Packed != nil || w.Cols == nil {
		t.Error("after DropPacked the relation must ship dict+ID")
	}
}
