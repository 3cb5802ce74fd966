package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"distcfd/internal/cfd"
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
// DefaultChunkRows chunks, so the streaming fold crosses chunk
// boundaries and the materialized kinds actually row-shard.
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

// TestReaderHighCardinalityFold pushes a two-wildcard unit into the
// open-addressing fold tier across chunk boundaries: composite
// interning must survive streaming feeds.
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

// TestConstantReaderSkipsAndMatches pins the constant units alone —
// the site-local Proposition 5 phase — streamed off a fragment against
// the same units over the materialized relation.
func TestConstantReaderSkipsAndMatches(t *testing.T) {
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
