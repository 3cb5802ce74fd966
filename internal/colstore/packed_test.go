package colstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"distcfd/internal/relation"
)

// refPackColumns is PackColumns as a fresh call computes it, with no
// scratch shared between calls or columns: a per-column map remap, one
// EncodeChunk per chunk into its own slice.
func refPackColumns(dicts []*relation.Dict, cols [][]uint32, rows int) []PackedColumn {
	out := make([]PackedColumn, len(cols))
	for j, col := range cols {
		at := map[uint32]uint32{}
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
		}
		for lo := 0; lo < rows; lo += DefaultChunkRows {
			chunk, _, _ := EncodeChunk(nil, ids[lo:min(lo+DefaultChunkRows, rows)])
			out[j].Chunks = append(out[j].Chunks, chunk)
		}
		out[j].Dict = EncodeDictSection(nil, vals)
	}
	return out
}

// packCase is one PackColumns input: columns of IDs into shared dicts.
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
// calls over a sparse shared dictionary, a dictionary above the remap
// table's cap (the map path), zero rows and one repeated value each
// produce the bytes of a fresh call, in chunks none of which can grow
// into the next, priced as the in-memory encoding prices the same rows.
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
	huge, err := relation.NewDictFromVals(vals(maxRemapTable + 9))
	if err != nil {
		t.Fatal(err)
	}
	cases := []packCase{
		scatteredCase("sparse shared", rng, small, 2*DefaultChunkRows+77, 3),
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
			want := refPackColumns(c.dicts, c.cols, c.rows)
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
			r, err := relation.FromSharedColumns(mustSchema(t, "p", []string{"a", "b", "c"}[:len(c.cols)]), c.dicts, c.cols, c.rows)
			if err != nil {
				t.Fatal(err)
			}
			wantRaw, wantEnc := r.Encoded().PayloadSizes()
			if raw, enc, err := p.PayloadSizes(); err != nil || raw != wantRaw || enc != wantEnc {
				t.Fatalf("%s: PayloadSizes = %d, %d, %v; the encoding prices %d, %d", c.name, raw, enc, err, wantRaw, wantEnc)
			}
		}
	}
}

// TestPayloadSizesEveryReader pins the packed pricing against the
// in-memory encoding's on every container a column set comes in — the
// fragment file and its PackBase (which share one count), PackColumns
// (priced while packing) and NewPacked (priced by decoding), each asked
// twice — including separator-adjacent and empty values.
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
	wantRaw, wantEnc := r.Encoded().PayloadSizes()
	for name, pr := range packedKinds(t, r) {
		for range 2 {
			if raw, enc, err := pr.PayloadSizes(); err != nil || raw != wantRaw || enc != wantEnc {
				t.Fatalf("%s: PayloadSizes = %d, %d, %v; the encoding prices %d, %d", name, raw, enc, err, wantRaw, wantEnc)
			}
		}
	}
}
