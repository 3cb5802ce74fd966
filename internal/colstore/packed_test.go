package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"distcfd/internal/relation"
)

// refPackColumns is PackColumns as a fresh call computes it, with no
// scratch shared between calls or columns: a per-column map remap, one
// EncodeChunk per chunk into its own slice. It also prices the rows the
// obvious way, as naiveSizes does: per column, a map[string]int of
// every cell's value.
func refPackColumns(dicts []*relation.Dict, cols [][]uint32, rows int) (out []PackedColumn, raw, encoded int64) {
	out = make([]PackedColumn, len(cols))
	for j, col := range cols {
		at := map[uint32]uint32{}
		count := map[string]int{}
		var vals []string
		ids := make([]uint32, rows)
		for i, src := range col {
			v, ok := at[src]
			if !ok {
				v = uint32(len(vals))
				at[src] = v
				vals = append(vals, dicts[j].Val(src))
			}
			ids[i] = v
			count[dicts[j].Val(src)]++
		}
		for lo := 0; lo < rows; lo += DefaultChunkRows {
			chunk, _, _ := EncodeChunk(nil, ids[lo:min(lo+DefaultChunkRows, rows)])
			out[j].Chunks = append(out[j].Chunks, chunk)
		}
		out[j].Dict = EncodeDictSection(nil, vals)
		for v, n := range count {
			raw += int64(n) * int64(len(v)+1)
			encoded += int64(len(v)+1) + 4*int64(n)
		}
	}
	return out, raw, encoded
}

// naiveSizes prices r in the row and dict+ID forms the obvious way,
// independent of the renumbering the code prices with: per column, a
// map[string]int over Tuples(); each cell costs its value's length plus
// one in the row form, and each distinct value its length plus one
// plus four bytes a cell in the dict+ID form.
func naiveSizes(r *relation.Relation) (raw, encoded int64) {
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

// packCase is one PackColumns input: columns of IDs into shared dicts.
// sharedColumns returns a relation reading cols, IDs into the parallel
// dicts, which it shares: what a coordinator's merge window holds.
func sharedColumns(tb testing.TB, s *relation.Schema, dicts []*relation.Dict, cols [][]uint32, rows int) *relation.Relation {
	tb.Helper()
	out, err := new(relation.Merge).Blocks(s, []int{rows}, nil, func(j int, wins [][]uint32) (*relation.Dict, error) {
		copy(wins[0], cols[j])
		return dicts[j], nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out[0]
}

type packCase struct {
	name  string
	dicts []*relation.Dict
	cols  [][]uint32
	rows  int
}

// scatteredCase selects rows IDs per column out of dict, the way a
// σ-block extract reads a few values of a fragment's shared dictionary.
func scatteredCase(name string, rng *rand.Rand, dict *relation.Dict, rows, arity int) packCase {
	c := packCase{name: name, rows: rows}
	for j := 0; j < arity; j++ {
		col := make([]uint32, rows)
		for i := range col {
			switch j {
			case 0: // one value in every row
				col[i] = uint32(dict.Len() - 1)
			case 1: // a sparse handful, the top ID among them
				col[i] = []uint32{0, 7, uint32(dict.Len() - 1), uint32(dict.Len() / 2)}[rng.Intn(4)]
			default:
				col[i] = uint32(rng.Intn(dict.Len()))
			}
		}
		c.dicts, c.cols = append(c.dicts, dict), append(c.cols, col)
	}
	return c
}

// TestPackColumnsPooledScratchMatchesFresh pins that PackColumns' pooled
// scratch leaks nothing from one call or column into the next: interleaved
// calls over a sparse shared dictionary, a chained overlay dictionary
// (IDs in both layers), a dictionary of more than 2²⁰ values (the
// renumbering's map side), zero rows and one repeated value each
// produce the bytes of a fresh call, in chunks none of which can grow
// into the next, priced as the reference prices the same rows — and so
// is the in-memory encoding of those rows (Encoded.PayloadSizes).
func TestPackColumnsPooledScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := func(n int) []string {
		out := make([]string, n)
		buf := make([]byte, 4*n)
		for i := range out {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(i))
		}
		s := string(buf)
		for i := range out {
			out[i] = s[4*i : 4*i+4]
		}
		out[0], out[1] = "", "\x1f"
		return out
	}
	small, err := relation.NewDictFromVals(vals(5000))
	if err != nil {
		t.Fatal(err)
	}
	huge, err := relation.NewDictFromVals(vals(1<<20 + 9))
	if err != nil {
		t.Fatal(err)
	}
	over := relation.Chain(small)
	for i := range 300 {
		over.ID(fmt.Sprintf("overlay %d", i))
	}
	cases := []packCase{
		scatteredCase("sparse shared", rng, small, 2*DefaultChunkRows+77, 3),
		scatteredCase("chained overlay", rng, over, DefaultChunkRows+5, 3),
		scatteredCase("map fallback", rng, huge, 600, 3),
		{name: "zero rows", dicts: []*relation.Dict{small, huge}, cols: [][]uint32{{}, {}}},
		scatteredCase("short", rng, small, 5, 2),
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			p, err := PackColumns(c.dicts, c.cols, c.rows)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRaw, wantEnc := refPackColumns(c.dicts, c.cols, c.rows)
			for j := range want {
				got := p.Column(j)
				if !bytes.Equal(got.Dict, want[j].Dict) || len(got.Chunks) != len(want[j].Chunks) {
					t.Fatalf("%s column %d: dictionary or chunk count differs from a fresh call's", c.name, j)
				}
				for k, chunk := range got.Chunks {
					if !bytes.Equal(chunk, want[j].Chunks[k]) {
						t.Fatalf("%s column %d chunk %d differs from a fresh call's", c.name, j, k)
					}
					if cap(chunk) != len(chunk) {
						t.Fatalf("%s column %d chunk %d can grow into its neighbour", c.name, j, k)
					}
				}
			}
			r := sharedColumns(t, mustSchema(t, "p", []string{"a", "b", "c"}[:len(c.cols)]), c.dicts, c.cols, c.rows)
			if raw, enc, err := p.PayloadSizes(); err != nil || raw != wantRaw || enc != wantEnc {
				t.Fatalf("%s: PayloadSizes = %d, %d, %v; the reference prices %d, %d", c.name, raw, enc, err, wantRaw, wantEnc)
			}
			if raw, enc := r.Encoded().PayloadSizes(); raw != wantRaw || enc != wantEnc {
				t.Fatalf("%s: Encoded.PayloadSizes = %d, %d; the reference prices %d, %d", c.name, raw, enc, wantRaw, wantEnc)
			}
		}
	}
}

// TestPayloadSizesEveryReader pins the packed pricing against
// naiveSizes on every container a column set comes in — the fragment
// file and its PackBase (which share one count), PackColumns (priced
// while packing) and NewPacked (priced by decoding), each asked twice —
// and the in-memory encoding, including separator-adjacent and empty
// values.
func TestPayloadSizesEveryReader(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := randomRelation(t, rng, DefaultChunkRows+300, 4)
	ts := r.Tuples()
	for i := range ts {
		ts[i][1] = []string{"", "\x1f", "a\x1f", "\x1fb", "x"}[rng.Intn(5)]
		ts[i][2] = "same"
	}
	r, err := relation.FromTuples(r.Schema(), ts)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, wantEnc := naiveSizes(r)
	if raw, enc := r.Encoded().PayloadSizes(); raw != wantRaw || enc != wantEnc {
		t.Fatalf("Encoded.PayloadSizes = %d, %d; the reference prices %d, %d", raw, enc, wantRaw, wantEnc)
	}
	for name, pr := range packedKinds(t, r) {
		for range 2 {
			if raw, enc, err := pr.PayloadSizes(); err != nil || raw != wantRaw || enc != wantEnc {
				t.Fatalf("%s: PayloadSizes = %d, %d, %v; the reference prices %d, %d", name, raw, enc, err, wantRaw, wantEnc)
			}
		}
	}
}

// TestCountSectionAdoptedOnce pins a peer's count column end to end: a
// section EncodeCounts coded is adopted (SetCounts) with its sum and
// without decoding, prices into PackedSize, and decodes once, to the
// counts it coded, however many goroutines ask at once (run it under
// -race); a section framing one count short, one with a zero count and
// one summing past relation.MaxBag are refused.
func TestCountSectionAdoptedOnce(t *testing.T) {
	const rows = DefaultChunkRows + 300 // two chunks
	want, bag := make([]uint32, rows), 0
	ids := make([]uint32, rows)
	for i := range want {
		want[i] = uint32(1 + i%7)
		bag += int(want[i])
		ids[i] = uint32(i % 5)
	}
	dict, err := relation.NewDictFromVals([]string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	section := EncodeCounts(want)
	for name, bad := range map[string][]byte{
		"short":    EncodeCounts(want[:rows-1]),
		"zero":     EncodeCounts(append(append([]uint32(nil), want[:rows-1]...), 0)),
		"overflow": EncodeCounts(append(append([]uint32(nil), want[:rows-1]...), relation.MaxBag)),
		"trailing": append(append([]byte(nil), section...), 0),
	} {
		p, err := PackColumns([]*relation.Dict{dict}, [][]uint32{ids}, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetCounts(bad); err == nil {
			t.Errorf("%s count section adopted", name)
		}
	}
	p, err := PackColumns([]*relation.Dict{dict}, [][]uint32{ids}, rows)
	if err != nil {
		t.Fatal(err)
	}
	plain := p.PackedSize()
	if err := p.SetCounts(section); err != nil {
		t.Fatal(err)
	}
	if p.CountSum() != bag || p.counts != nil {
		t.Fatalf("adopted sum %d (decoded %v), want %d undecoded", p.CountSum(), p.counts != nil, bag)
	}
	if got := p.PackedSize(); got != plain+int64(len(section)) {
		t.Fatalf("PackedSize %d, want %d + the %d-byte section", got, plain, len(section))
	}
	var wg sync.WaitGroup
	got := make([][]uint32, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = p.Counts()
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) || &got[g][0] != &got[0][0] {
			t.Fatalf("goroutine %d decoded other counts, or its own copy", g)
		}
	}
}
