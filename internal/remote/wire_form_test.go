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

	packCols := src.Clone()
	attachPacked(t, packCols)
	out["provider PackColumns"] = packCols

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
	packBase := src.Clone()
	packBase.SetPackedProvider(func() (relation.PackedColumnReader, error) { return f.PackBase(all) })
	out["provider PackBase"] = packBase

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
// A relation that is not itself a packed payload gets the smallest of
// its forms; one that is ships as the payload it is; and what a sender
// shipped packed, the receiver re-ships and bills identically.
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

			raw, enc := r.Encoded().PayloadSizes()
			sizes := map[dist.WireForm]int64{dist.RowForm: raw, dist.ColumnForm: enc}
			if pr, err := r.PackedPayload(); err != nil {
				t.Fatalf("%s: %v", name, err)
			} else if pr != nil {
				sizes[dist.PackedForm] = pr.PackedSize()
			}
			if want, ok := sizes[form]; !ok || n != want {
				t.Errorf("%s: billed %d for form %d, whose modeled size is %d (attached: %v)", name, n, form, want, ok)
			}
			if r.BackingReader() != nil {
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
