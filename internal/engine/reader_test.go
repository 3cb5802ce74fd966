package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/relation"
)

func TestDetectReaderMatchesPaperExample(t *testing.T) {
	d := empD0()
	f := openFragment(t, d)
	cases := []struct {
		c    *cfd.CFD
		want []int
	}{
		{phi1, []int{1, 2, 3, 4, 7, 8}},
		{phi2, nil},
		{phi3, []int{1, 2, 5}},
	}
	for _, tc := range cases {
		// Over the packed fragment and, as a second reader, the
		// in-memory encoded view through the same entry point.
		got, err := detectReader(f, f.Schema(), tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.c.Name, err)
		}
		if !equalInts(got, tc.want) {
			t.Errorf("%s: DetectSetReader(fragment) = %v, want %v", tc.c.Name, got, tc.want)
		}
		got2, err := detectReader(d.Encoded(), d.Schema(), tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.c.Name, err)
		}
		if !equalInts(got2, tc.want) {
			t.Errorf("%s: DetectSetReader(encoded) = %v, want %v", tc.c.Name, got2, tc.want)
		}
	}
	all, err := defaultKernel.DetectSetReader(f, f.Schema(), []*cfd.CFD{phi1, phi2, phi3})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(all, []int{1, 2, 3, 4, 5, 7, 8}) {
		t.Errorf("DetectSetReader = %v", all)
	}
}

// TestReaderEquivalenceRandomized pins the tentpole property: detection
// is byte-identical whatever the column source — same violating rows,
// same extracted patterns in the same order — across random relations
// and CFDs, every draw through the whole equivalence table
// (checkAllSources). Draws alternate between small relations, which the
// quadratic oracle also judges, and relations spanning several
// DefaultChunkRows chunks, so decoding crosses chunk boundaries and
// every kind actually row-shards.
func TestReaderEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := relation.MustSchema("R", []string{"a", "b", "c", "d"})
	domains := []int{3, 4, 2, 3}
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(naiveOracleRows)
		if trial%2 == 1 {
			n = 8192 + rng.Intn(2*8192)
		}
		d := relation.New(s)
		for i := 0; i < n; i++ {
			row := make(relation.Tuple, 4)
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(domains[j]))
			}
			d.MustAppend(row)
		}
		for k := 0; k < 5; k++ {
			checkAllSources(t, d, randomCFD(rng))
		}
	}
}

// TestReaderHighCardinalityFold pushes a two-wildcard unit over a
// fragment spanning several chunks into the open-addressing fold tier:
// composite interning must match the materialized relation's.
func TestReaderHighCardinalityFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := relation.MustSchema("R", []string{"a", "b", "c"})
	d := relation.New(s)
	n := 2*8192 + 1000
	for i := 0; i < n; i++ {
		d.MustAppend(relation.Tuple{
			fmt.Sprintf("a%d", rng.Intn(n)), // high cardinality: open tier
			fmt.Sprintf("b%d", rng.Intn(n)),
			fmt.Sprintf("c%d", rng.Intn(3)),
		})
	}
	c := cfd.MustParse(`hc: [a, b] -> [c]`)
	f := openFragment(t, d)
	want, err := detectOne(d, c, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := detectReader(f, f.Schema(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, want) {
		t.Fatalf("high-cardinality fold disagrees: got %d rows, want %d", len(got), len(want))
	}
}

// gappedPacked hand-builds a 4-row, 2-chunk packed payload over [a, b]
// whose column-a dictionary holds a value ("gap", ID 2) that no chunk
// contains: chunk 0 holds IDs {0, 1}, chunk 1 holds IDs {3, 4}.
// PackColumns never produces such a dictionary (it keeps only occurring
// values), but a shipped payload makes no such promise. Rows: (a0,b0)
// (a1,b0) (a3,b1) (a4,b1).
func gappedPacked(t *testing.T) *colstore.Packed {
	t.Helper()
	col := func(dict []string, chunks ...[]uint32) colstore.PackedColumn {
		pc := colstore.PackedColumn{Dict: colstore.EncodeDictSection(nil, dict)}
		for _, ids := range chunks {
			chunk, _, _ := colstore.EncodeChunk(nil, ids)
			pc.Chunks = append(pc.Chunks, chunk)
		}
		return pc
	}
	p, err := colstore.NewPacked(4, 2, []colstore.PackedColumn{
		col([]string{"a0", "a1", "gap", "a3", "a4"}, []uint32{0, 1}, []uint32{3, 4}),
		col([]string{"b0", "b1"}, []uint32{0, 0}, []uint32{1, 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConstantUnitsOverReaders pins the constant units alone — the
// site-local Proposition 5 phase — over packed readers: a fragment
// against the same units over the materialized relation, a shipped
// payload whose dictionary holds a value no chunk does (as a bare
// reader and adopted as a relation's storage, sharded), and a constant
// on a column other than the first of a fragment spanning two chunks.
func TestConstantUnitsOverReaders(t *testing.T) {
	d := empD0()
	f := openFragment(t, d)
	consts := phi3.Normalize() // both rows are constant units
	want, err := detectUnits(d.Encoded(), d.Schema(), consts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := detectUnits(f, f.Schema(), consts)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, want) || !equalInts(got, []int{1, 2, 5}) {
		t.Fatalf("constant units over the fragment = %v, materialized = %v, want [1 2 5]", got, want)
	}

	gs := relation.MustSchema("R", []string{"a", "b"})
	gapped := gappedPacked(t)
	if got, err := detectReader(gapped, gs, cfd.MustParse(`z: [a] -> [b] : (gap || b0)`)); err != nil || len(got) != 0 {
		t.Fatalf("constant no chunk holds: violations %v, err %v; want none", got, err)
	}
	adopted, err := relation.FromPackedReader(gs, gapped)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := detectOne(adopted, cfd.MustParse(`z2: [a] -> [b] : (a3 || b0)`), Opts{Workers: 4}); err != nil || !equalInts(got, []int{2}) {
		t.Fatalf("constant in chunk 1: violations %v, err %v; want [2]", got, err)
	}

	rows := 2 * colstore.DefaultChunkRows
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		b := "early"
		if i >= colstore.DefaultChunkRows {
			b = "late"
		}
		ts[i] = relation.Tuple{"a", b, "c"}
	}
	ts[rows-1][2] = "odd"
	ls := relation.MustSchema("R", []string{"a", "b", "c"})
	late, err := relation.FromTuples(ls, ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err = detectReader(openFragment(t, late), ls, cfd.MustParse(`z: [b] -> [c] : (late || c)`))
	if err != nil || !equalInts(got, []int{rows - 1}) {
		t.Fatalf("constant on column b: violations %v, err %v; want [%d]", got, err, rows-1)
	}
}

// TestCorruptColumnIsAnError pins the decode's error channel: with one
// byte flipped inside a column segment of a fragment file, detection
// that reads the column returns an error naming it — over the fragment
// as a bare reader and adopted as a relation's storage — and panics
// nowhere.
func TestCorruptColumnIsAnError(t *testing.T) {
	d := empD0()
	bad := d.Schema().MustIndex("street")
	path := filepath.Join(t.TempDir(), colstore.FragmentFile)
	if _, err := colstore.WriteRelation(path, d); err != nil {
		t.Fatal(err)
	}
	clean, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := clean.PackBase([]int{bad})
	if err != nil {
		t.Fatal(err)
	}
	payload := p.Column(0).Chunks[0]
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(file, payload)
	clean.Close()
	if off < 0 {
		t.Fatal("chunk payload not found in the file")
	}
	file[off+len(payload)/2] ^= 0x40
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.Open(path)
	if err != nil {
		t.Fatalf("Open checked a column segment eagerly: %v", err)
	}
	defer f.Close()
	wantErr := fmt.Sprintf("column %d", bad)
	if _, err := detectReader(f, f.Schema(), phi1); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("DetectSetReader over the damaged fragment: %v, want an error naming %s", err, wantErr)
	}
	adopted, err := relation.FromPackedReader(f.Schema(), f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectOne(adopted, phi1, Opts{Workers: 2}); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("DetectSet over the adopted fragment: %v, want an error naming %s", err, wantErr)
	}
}

func TestReaderEmptyRelation(t *testing.T) {
	s := relation.MustSchema("R", []string{"a", "b", "c", "d"})
	d := relation.New(s)
	f := openFragment(t, d)
	got, err := detectReader(f, f.Schema(), phi2Like())
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("violations over empty = %v", got)
	}
}

func phi2Like() *cfd.CFD {
	return cfd.MustParse(`e: [a, b] -> [c]`)
}
