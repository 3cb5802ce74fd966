package relation

import (
	"fmt"
	"sync"
	"testing"
)

func encTestRelation() *Relation {
	s := MustSchema("T", []string{"a", "b", "c"}, "a")
	return MustFromRows(s,
		[]string{"x1", "u", "p"},
		[]string{"x2", "u", "q"},
		[]string{"x3", "v", "p"},
		[]string{"x1", "v", "q"},
		[]string{"x2", "u", "p"},
	)
}

func TestEncodedColumnsMatchTuples(t *testing.T) {
	r := encTestRelation()
	e := r.Encoded()
	if e.Rows() != r.Len() || e.Arity() != 3 {
		t.Fatalf("Rows/Arity = %d/%d", e.Rows(), e.Arity())
	}
	for j := 0; j < e.Arity(); j++ {
		col, dict := e.Column(j)
		for i, t2 := range r.Tuples() {
			if got := dict.Val(col[i]); got != t2[j] {
				t.Errorf("col %d row %d decodes to %q, want %q", j, i, got, t2[j])
			}
		}
		// Equal values share IDs, distinct values do not.
		for i := range r.Tuples() {
			for k := range r.Tuples() {
				if (col[i] == col[k]) != (r.Tuple(i)[j] == r.Tuple(k)[j]) {
					t.Errorf("col %d: id equality diverges from value equality at rows %d,%d", j, i, k)
				}
			}
		}
	}
}

func TestEncodedCachedAndInvalidated(t *testing.T) {
	r := encTestRelation()
	e1 := r.Encoded()
	if r.Encoded() != e1 {
		t.Error("Encoded not cached between calls")
	}
	r.MustAppend(Tuple{"x9", "w", "r"})
	e2 := r.Encoded()
	if e2 == e1 {
		t.Error("Append did not invalidate the encoded view")
	}
	if e2.Rows() != r.Len() {
		t.Errorf("rebuilt view has %d rows, want %d", e2.Rows(), r.Len())
	}
	col, dict := e2.Column(1)
	if dict.Val(col[r.Len()-1]) != "w" {
		t.Error("rebuilt view misses the appended tuple")
	}

	other := MustFromRows(r.Schema(), []string{"y1", "z", "s"})
	if err := r.AppendAll(other); err != nil {
		t.Fatal(err)
	}
	if r.Encoded() == e2 {
		t.Error("AppendAll did not invalidate the encoded view")
	}
	e3 := r.Encoded()
	if err := r.SortBy("a"); err != nil {
		t.Fatal(err)
	}
	if r.Encoded() == e3 {
		t.Error("SortBy did not invalidate the encoded view")
	}
	// After the sort the view must still decode to the sorted tuples.
	e4 := r.Encoded()
	col, dict = e4.Column(0)
	for i, t2 := range r.Tuples() {
		if dict.Val(col[i]) != t2[0] {
			t.Fatalf("row %d decodes to %q after sort, want %q", i, dict.Val(col[i]), t2[0])
		}
	}
}

// TestEncodedConcurrentBuild hammers the lazy construction from many
// goroutines; run under -race this pins the synchronization of
// Relation.Encoded and Encoded.Column.
func TestEncodedConcurrentBuild(t *testing.T) {
	s := MustSchema("T", []string{"a", "b", "c", "d"})
	r := New(s)
	for i := 0; i < 500; i++ {
		r.MustAppend(Tuple{
			fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%11),
			fmt.Sprintf("c%d", i%13), fmt.Sprintf("d%d", i),
		})
	}
	var wg sync.WaitGroup
	views := make([]*Encoded, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := r.Encoded()
			views[g] = e
			for j := 0; j < 4; j++ {
				col, dict := e.Column((g + j) % 4)
				if dict.Val(col[0]) != r.Tuple(0)[(g+j)%4] {
					t.Errorf("goroutine %d: wrong decode", g)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if views[g] != views[0] {
			t.Fatal("concurrent Encoded calls returned different views")
		}
	}
}

func TestProjectRows(t *testing.T) {
	r := encTestRelation()
	out, err := r.ProjectRows("P", []string{"b", "c"}, []int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromRows(out.Schema(),
		[]string{"u", "p"}, []string{"v", "p"}, []string{"u", "p"})
	if out.Len() != 3 || !out.SameTuples(want) {
		t.Fatalf("ProjectRows = %v", out)
	}
	// The derived view shares the source dictionaries (no re-interning)
	// and decodes to the projected tuples.
	e := out.Encoded()
	_, srcDictB := r.Encoded().Column(1)
	colB, dictB := e.Column(0)
	if dictB != srcDictB {
		t.Error("ProjectRows should share the source dictionary")
	}
	for i, tp := range out.Tuples() {
		if dictB.Val(colB[i]) != tp[0] {
			t.Errorf("row %d decodes to %q, want %q", i, dictB.Val(colB[i]), tp[0])
		}
	}
	if _, err := r.ProjectRows("P", []string{"zz"}, nil); err == nil {
		t.Error("unknown attribute should fail")
	}
	empty, err := r.ProjectRows("E", []string{"a"}, nil)
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty ProjectRows = %v, %v", empty, err)
	}
}

func TestFromColumns(t *testing.T) {
	s := MustSchema("W", []string{"a", "b"})
	dicts := [][]string{{"x", "y"}, {"p"}}
	cols := [][]uint32{{0, 1, 0}, {0, 0, 0}}
	r, err := FromColumns(s, dicts, cols, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromRows(s, []string{"x", "p"}, []string{"y", "p"}, []string{"x", "p"})
	if !r.SameTuples(want) {
		t.Fatalf("FromColumns = %v", r)
	}
	// The installed view is the shipped one: no rebuild.
	col, dict := r.Encoded().Column(0)
	if dict.Val(col[1]) != "y" {
		t.Error("installed encoding decodes wrongly")
	}

	if _, err := FromColumns(s, dicts[:1], cols, 3); err == nil {
		t.Error("column count mismatch should fail")
	}
	if _, err := FromColumns(s, dicts, [][]uint32{{0}, {0}}, 3); err == nil {
		t.Error("row count mismatch should fail")
	}
	if _, err := FromColumns(s, dicts, [][]uint32{{0, 5, 0}, {0, 0, 0}}, 3); err == nil {
		t.Error("out-of-range id should fail")
	}
	if _, err := FromColumns(s, [][]string{{"x", "x"}, {"p"}}, cols, 3); err == nil {
		t.Error("duplicate dictionary value should fail")
	}
}

func TestPayloadSizesAndCompact(t *testing.T) {
	r := encTestRelation()
	raw, enc := r.Encoded().PayloadSizes()
	// Raw form: every cell's bytes + 1. 15 cells, all length 1 or 2.
	var wantRaw int64
	for _, tp := range r.Tuples() {
		for _, v := range tp {
			wantRaw += int64(len(v)) + 1
		}
	}
	if raw != wantRaw {
		t.Errorf("raw = %d, want %d", raw, wantRaw)
	}
	// Encoded form: distinct values + 4 bytes per cell.
	var wantEnc int64
	for j := 0; j < 3; j++ {
		seen := map[string]bool{}
		for _, tp := range r.Tuples() {
			if !seen[tp[j]] {
				seen[tp[j]] = true
				wantEnc += int64(len(tp[j])) + 1
			}
		}
		wantEnc += 4 * int64(r.Len())
	}
	if enc != wantEnc {
		t.Errorf("encoded = %d, want %d", enc, wantEnc)
	}

	// A sparse (shared-dictionary) extract must report the same sizes
	// as its compacted wire form.
	sub, err := r.ProjectRows("S", []string{"b", "c"}, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	_, subEnc := sub.Encoded().PayloadSizes()
	dicts, cols := sub.Encoded().CompactColumns()
	var compactEnc int64
	for j := range dicts {
		for _, v := range dicts[j] {
			compactEnc += int64(len(v)) + 1
		}
		compactEnc += 4 * int64(len(cols[j]))
		if len(cols[j]) != sub.Len() {
			t.Errorf("compact col %d has %d rows", j, len(cols[j]))
		}
		for i, id := range cols[j] {
			if dicts[j][id] != sub.Tuple(i)[j] {
				t.Errorf("compact col %d row %d decodes to %q, want %q", j, i, dicts[j][id], sub.Tuple(i)[j])
			}
		}
	}
	if subEnc != compactEnc {
		t.Errorf("PayloadSizes encoded = %d, compact form = %d", subEnc, compactEnc)
	}
}
