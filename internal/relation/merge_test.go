package relation

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// packedRows is a PackedColumnReader over in-memory columns: the
// packed seam without the chunk codec (colstore imports relation).
// With fail set every ReadColumn fails, as a corrupt chunk would.
type packedRows struct {
	*Encoded
	fail bool
}

func (p packedRows) ReadColumn(i, lo int, dst []uint32) error {
	if p.fail {
		return errors.New("corrupt chunk")
	}
	return p.Encoded.ReadColumn(i, lo, dst)
}

func (p packedRows) ColumnChunks(int) (int, error) { return 1, nil }
func (p packedRows) ChunkSpan(int, int) (int, int) { return 0, p.Rows() }
func (p packedRows) PackedSize() int64             { return 0 }
func (p packedRows) Counts() []uint32              { return nil }
func (p packedRows) CountSum() int                 { return 0 }
func (p packedRows) PayloadSizes() (int64, int64, error) {
	raw, enc := p.Encoded.PayloadSizes()
	return raw, enc, nil
}

// packedPart adopts r's columns as a packed part, as a wire receive does.
func packedPart(t testing.TB, r *Relation, fail bool) *Relation {
	t.Helper()
	p, err := FromPackedReader(r.Schema(), packedRows{r.Encoded(), fail})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcat pins the merge rule: the first non-empty part keeps its
// IDs and its dictionary, which the call never writes; a part sharing
// that dictionary is copied as it is; IDs track values across parts,
// and a value only a later part holds gets an ID past the base
// dictionary, in an overlay.
func TestConcat(t *testing.T) {
	r := encTestRelation()
	a, err := r.ProjectRows("A", []string{"a", "b"}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ProjectRows("B", []string{"a", "b"}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Schema()
	rows := MustFromRows(s, []string{"x9", "u"}, []string{"x1", "w"})
	cols, err := FromColumns(s, [][]string{{"x2", "x8"}, {"v"}}, [][]uint32{{1, 0}, {0, 0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	packed := packedPart(t, MustFromRows(s, []string{"x7", "u"}), false)
	baseLens := []int{}
	for j := 0; j < 2; j++ {
		_, d := a.Encoded().Column(j)
		baseLens = append(baseLens, d.Len())
	}
	out, err := Concat(New(s), a, b, rows, cols, packed)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromRows(s,
		[]string{"x1", "u"}, []string{"x2", "u"}, []string{"x1", "v"}, []string{"x2", "u"},
		[]string{"x9", "u"}, []string{"x1", "w"}, []string{"x8", "v"}, []string{"x2", "v"}, []string{"x7", "u"})
	if !slices.EqualFunc(out.Tuples(), want.Tuples(), slices.Equal) {
		t.Fatalf("Concat = %v, want %v", out, want)
	}
	for j := 0; j < 2; j++ {
		col, dict := out.Encoded().Column(j)
		acol, base := a.Encoded().Column(j)
		bcol, _ := b.Encoded().Column(j)
		if base.Len() != baseLens[j] {
			t.Errorf("col %d: the base dictionary grew from %d to %d values", j, baseLens[j], base.Len())
		}
		if !slices.Equal(col[:2], acol) || !slices.Equal(col[2:4], bcol) {
			t.Errorf("col %d: ids %v, want the base part's %v then the shared part's %v", j, col, acol, bcol)
		}
		for i, tu := range want.Tuples() {
			if id, ok := dict.Lookup(tu[j]); !ok || id != col[i] {
				t.Errorf("col %d row %d: id %d, but %q looks up as %d, %v", j, i, col[i], tu[j], id, ok)
			}
			if _, known := base.Lookup(tu[j]); !known && int(col[i]) < base.Len() {
				t.Errorf("col %d row %d: new value %q got id %d inside the base dictionary", j, i, tu[j], col[i])
			}
		}
	}
	if empty, err := Concat(New(s), New(s)); err != nil || empty.Len() != 0 {
		t.Errorf("Concat of empty parts = %v, %v", empty, err)
	}
	if _, err := Concat(a, packedPart(t, rows, true)); err == nil {
		t.Error("a packed part that fails to decode was merged")
	}
	if _, err := Concat(); err == nil {
		t.Error("Concat of nothing should fail")
	}
	s1 := MustSchema("S1", []string{"a"})
	if _, err := Concat(a, New(s1)); err == nil {
		t.Error("arity mismatch should fail")
	}
}

// FuzzConcat builds parts from bytes — empty, row-backed, extracts
// sharing one source's dictionaries, dict+ID, packed, packed parts that
// fail to decode, and extracts over a chained overlay dictionary and
// over one of more than 2²⁰ values (both sides of the renumbering's
// table/map rule) — and merges them twice through one Merge (all of
// them, then all but the first), so the second merge overwrites the
// first's columns. Each merge must hold exactly the parts' tuples in
// order with IDs that look up as their values, keep the first non-empty
// part's IDs, leave every part's dictionary as it was, price its rows
// as naiveSizes does and compact to a dict+ID form FromColumns adopts;
// a part that fails to decode must fail the merge. A counted part
// (header bit 5, on a row-backed, dict+ID, packed or overlay part)
// holds its rows' distinct tuples with their multiplicities as counts:
// the merge reads its distinct rows only (Merge ignores counts), and
// holds the same tuples, up to duplicates, as a merge with the part's
// expanded bag in its place.
//
// Script: one header byte a part, kind = h%8, rows = (h>>3)%4 and
// counted = h>>5&1, then one byte a row (value v<b%9> in column a,
// w<b/9%4> in column b; a source row index for an extract).
func FuzzConcat(f *testing.F) {
	f.Add([]byte{0x1a, 1, 2, 3, 0x09, 4, 5, 0x13, 6, 7, 0x1c, 8, 9, 10})
	f.Add([]byte{0x10, 0x0a, 3, 0x0b, 2, 4})
	f.Add([]byte{0x19, 0, 1, 2, 0x12, 5, 6, 0x0d, 7, 0x08, 9, 0x1b, 1, 1, 1})
	f.Add([]byte{0x1e, 3, 20, 35, 0x17, 2, 11, 0x09, 8, 0x1f, 1, 5, 30})
	f.Add([]byte{0x1f, 4, 5, 6, 0x1e, 7, 8, 9, 0x0b, 1})
	f.Add([]byte{0x39, 1, 1, 2, 0x3b, 3, 3, 3, 0x14, 1, 2, 0x3c, 5, 14, 5, 0x3e, 0, 0, 9})
	s := MustSchema("R", []string{"a", "b"})
	src := MustFromRows(s, []string{"v0", "w0"}, []string{"v1", "w1"}, []string{"v2", "w0"},
		[]string{"v3", "w2"}, []string{"v4", "w1"}, []string{"v0", "w3"})
	// The overlay holds v5..v8 and w2, w3 over a root holding the rest;
	// the huge dictionary holds every value among 2²⁰ others.
	root, _ := NewDictFromVals([]string{"v0", "v1", "v2", "v3", "v4", "w0", "w1"})
	over := Chain(root)
	hugeVals := make([]string, 1<<20+16)
	for i := range hugeVals {
		hugeVals[i] = fmt.Sprint("h", i)
	}
	for i := range 9 {
		over.ID(fmt.Sprint("v", i))
		hugeVals[1<<20+i] = fmt.Sprint("v", i)
	}
	for i := range 4 {
		over.ID(fmt.Sprint("w", i))
		hugeVals[1<<20+9+i] = fmt.Sprint("w", i)
	}
	huge, err := NewDictFromVals(hugeVals)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		var parts, bags []*Relation
		broken, anyCounted := false, false
		for len(script) > 0 && len(parts) < 8 {
			h := script[0]
			n := min(int(h>>3)%4, len(script)-1)
			body := script[1 : 1+n]
			script = script[1+n:]
			var ts []Tuple
			var idx []int
			for _, b := range body {
				ts = append(ts, Tuple{fmt.Sprintf("v%d", b%9), fmt.Sprintf("w%d", b/9%4)})
				idx = append(idx, int(b)%src.Len())
			}
			bag, err := FromTuples(s, ts)
			if err != nil {
				t.Fatal(err)
			}
			var counts []uint32
			counted := h>>5&1 == 1 && len(ts) > 0 && slices.Contains([]byte{1, 3, 4, 6, 7}, h%8)
			if counted {
				ts, counts = distinctTuples(ts)
				anyCounted = true
			}
			p, err := FromTuples(s, ts)
			if err != nil {
				t.Fatal(err)
			}
			switch h % 8 {
			case 0:
				p = New(s)
			case 2:
				p, err = src.ProjectRows("R", []string{"a", "b"}, idx)
			case 3:
				dicts, cols := p.Encoded().CompactColumns()
				p, err = FromColumns(s, dicts, cols, len(ts))
			case 4, 5:
				p = packedPart(t, p, h%8 == 5)
				broken = broken || h%8 == 5 && len(ts) > 0
			case 6, 7:
				d := over
				if h%8 == 7 {
					d = huge
				}
				cols := [][]uint32{make([]uint32, len(ts)), make([]uint32, len(ts))}
				for i, tu := range ts {
					cols[0][i], _ = d.Lookup(tu[0])
					cols[1][i], _ = d.Lookup(tu[1])
				}
				var enc *Encoded
				p, enc = lazyView(s, len(ts))
				copy(enc.cols, cols)
				enc.dicts[0], enc.dicts[1] = d, d
			}
			if err == nil && counted {
				err = p.SetCounts(counts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !counted {
				bag = p
			}
			parts, bags = append(parts, p), append(bags, bag)
		}
		if len(parts) == 0 {
			return
		}
		var m Merge
		checkMerge(t, &m, parts, broken)
		if anyCounted && !broken {
			distinct, err := Concat(parts...)
			if err != nil {
				t.Fatal(err)
			}
			expanded, err := Concat(bags...)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := tupleSet(distinct.Tuples()), tupleSet(expanded.Tuples()); !maps.Equal(a, b) {
				t.Fatalf("a merge with counted parts holds %v; with their bags expanded, %v", a, b)
			}
		}
		rest, restBroken := parts[1:], false
		for _, p := range rest {
			if br, ok := p.BackingReader().(packedRows); ok && br.fail && p.Len() > 0 {
				restBroken = true
			}
		}
		if len(rest) > 0 {
			checkMerge(t, &m, rest, restBroken)
		}
		m.Shrink()
	})
}

// distinctTuples returns ts's distinct tuples in first-occurrence
// order and how often each occurs: the count column a store site ships
// a σ-block with.
func distinctTuples(ts []Tuple) ([]Tuple, []uint32) {
	var out []Tuple
	var counts []uint32
	at := map[string]int{}
	for _, tu := range ts {
		k := strings.Join(tu, "\x00")
		i, ok := at[k]
		if !ok {
			i, at[k] = len(out), len(out)
			out, counts = append(out, tu), append(counts, 0)
		}
		counts[i]++
	}
	return out, counts
}

// tupleSet is the set of ts's tuples, each keyed by its values.
func tupleSet(ts []Tuple) map[string]bool {
	set := map[string]bool{}
	for _, tu := range ts {
		set[strings.Join(tu, "\x00")] = true
	}
	return set
}

// naiveSizes prices r in the row and dict+ID forms the obvious way,
// independent of the Renumber the code prices with: per column, a
// map[string]int over Tuples(); each cell costs its value's length plus
// one in the row form, and each distinct value its length plus one
// plus four bytes a cell in the dict+ID form.
func naiveSizes(r *Relation) (raw, encoded int64) {
	for j := 0; j < r.Schema().Arity(); j++ {
		count := map[string]int{}
		for _, t := range r.Tuples() {
			count[t[j]]++
		}
		for v, n := range count {
			raw += int64(n) * int64(len(v)+1)
			encoded += int64(len(v)+1) + 4*int64(n)
		}
	}
	return raw, encoded
}

// checkMerge merges parts through m and checks the result against the
// parts' own tuples and dictionaries.
func checkMerge(t *testing.T, m *Merge, parts []*Relation, broken bool) {
	t.Helper()
	var want []Tuple
	var first *Relation
	dictVals := map[*Dict][]string{}
	for _, p := range parts {
		if br, ok := p.BackingReader().(packedRows); ok && br.fail {
			continue // its tuples cannot be read; the merge must refuse it
		}
		want = append(want, p.Tuples()...)
		if first == nil && p.Len() > 0 {
			first = p
		}
		if p.Len() > 0 && (p.lazy != nil || p.enc.Load() != nil) {
			for j := 0; j < p.Schema().Arity(); j++ {
				if _, d := p.Encoded().Column(j); d.Len() < 1<<10 { // the huge one is shared, never merged into
					dictVals[d] = slices.Clone(d.Vals())
				}
			}
		}
	}
	out, err := m.Concat(parts...)
	if broken {
		if err == nil {
			t.Fatal("a part that fails to decode was merged")
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Tuples(); len(got) != len(want) || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for d, vals := range dictVals {
		if !slices.Equal(d.Vals(), vals) {
			t.Fatalf("a part's dictionary changed from %v to %v", vals, d.Vals())
		}
	}
	if out.Len() == 0 {
		return
	}
	raw, enc := out.Encoded().PayloadSizes()
	if wantRaw, wantEnc := naiveSizes(out); raw != wantRaw || enc != wantEnc {
		t.Fatalf("merge priced %d, %d; the reference %d, %d", raw, enc, wantRaw, wantEnc)
	}
	dicts, cols := out.Encoded().CompactColumns()
	if back, err := FromColumns(out.Schema(), dicts, cols, out.Len()); err != nil || !slices.EqualFunc(back.Tuples(), want, slices.Equal) {
		t.Fatalf("the merge's compact form came back as %v, %v", back, err)
	}
	for j := 0; j < out.Schema().Arity(); j++ {
		col, dict := out.Encoded().Column(j)
		for i, tu := range want {
			if id, ok := dict.Lookup(tu[j]); !ok || id != col[i] {
				t.Fatalf("col %d row %d: id %d, but %q looks up as %d, %v", j, i, col[i], tu[j], id, ok)
			}
		}
		if first.lazy != nil || first.enc.Load() != nil {
			fcol, _ := first.Encoded().Column(j)
			if !slices.Equal(col[:len(fcol)], fcol) {
				t.Fatalf("col %d: the first part's ids %v came back as %v", j, fcol, col[:len(fcol)])
			}
		}
	}
}
