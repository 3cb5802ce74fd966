package engine

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// randomTableauCFD draws a CFD over randomRelation's attributes with a
// tableau of 1–64 rows: X of one to three attributes, Y of one or two,
// the rows' constant positions drawn from a few shared shapes so
// patterns overlap, some rows repeated verbatim, constants drawn past
// the columns' domains so some are absent from the dictionary, and
// wildcard and constant RHS entries mixed.
func randomTableauCFD(rng *rand.Rand, name string) *cfd.CFD {
	attrs := []string{"a", "b", "c", "d", "e"}
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	nx := 1 + rng.Intn(3)
	ny := 1 + rng.Intn(2)
	shapes := make([][]bool, 1+rng.Intn(3))
	for s := range shapes {
		shapes[s] = make([]bool, nx)
		for j := range shapes[s] {
			shapes[s][j] = rng.Intn(2) == 0
		}
	}
	constant := func() string { return fmt.Sprintf("v%d", rng.Intn(12)) }
	rows := 1 + rng.Intn(64)
	tps := make([]cfd.PatternTuple, 0, rows)
	for len(tps) < rows {
		if len(tps) > 0 && rng.Intn(6) == 0 {
			tps = append(tps, tps[rng.Intn(len(tps))])
			continue
		}
		shape := shapes[rng.Intn(len(shapes))]
		tp := cfd.PatternTuple{LHS: make([]string, nx), RHS: make([]string, ny)}
		for j, isConst := range shape {
			tp.LHS[j] = cfd.Wildcard
			if isConst {
				tp.LHS[j] = constant()
			}
		}
		for k := range tp.RHS {
			tp.RHS[k] = cfd.Wildcard
			if rng.Intn(4) == 0 {
				tp.RHS[k] = constant()
			}
		}
		tps = append(tps, tp)
	}
	return cfd.MustNew(name, attrs[:nx], attrs[nx:nx+ny], tps)
}

// TestTableauMatchesPerUnit pins the one-grouping-per-CFD kernel
// against the per-unit reference (DetectRows, one grouping per
// normalized unit), the naive oracle and the pattern oracle, over every
// source kind at 1, 2 and 4 workers: random tableaux of 1–64 rows over
// relations small enough for the naive oracle, and a few large enough
// that the row range shards.
func TestTableauMatchesPerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	cases := 40
	if testing.Short() {
		cases = 10
	}
	for i := 0; i < cases; i++ {
		rows := 1 + rng.Intn(naiveOracleRows)
		if i%10 == 9 {
			rows = 2*minShardRows + rng.Intn(minShardRows)
		}
		checkAllSources(t, randomRelation(rng, rows), randomTableauCFD(rng, fmt.Sprintf("t%d", i)))
	}
}

// TestViolationPatternsAllocsFlat pins what a warm ViolationPatterns
// call allocates: nothing per tableau row — 63 extra patterns whose
// constants the data never interned cost no more than the one live
// pattern — and nothing per violating row, only per emitted pattern.
func TestViolationPatternsAllocsFlat(t *testing.T) {
	s := relation.MustSchema("P", []string{"a", "b", "c"})
	build := func(rows int) *relation.Relation {
		d := relation.New(s)
		for i := 0; i < rows; i++ {
			d.MustAppend(relation.Tuple{fmt.Sprintf("a%d", i%8), fmt.Sprintf("b%d", i%2), fmt.Sprintf("c%d", i%3)})
		}
		d.Encoded()
		return d
	}
	live := cfd.PatternTuple{LHS: []string{cfd.Wildcard, "b1"}, RHS: []string{cfd.Wildcard}}
	one := cfd.MustNew("one", []string{"a", "b"}, []string{"c"}, []cfd.PatternTuple{live})
	tps := []cfd.PatternTuple{live}
	for i := 1; i < 64; i++ {
		tps = append(tps, cfd.PatternTuple{LHS: []string{fmt.Sprintf("absent%d", i), cfd.Wildcard}, RHS: []string{cfd.Wildcard}})
	}
	wide := cfd.MustNew("wide", []string{"a", "b"}, []string{"c"}, tps)

	// A collection mid-run empties sync.Pools, whose refills would
	// count; the race detector drops pool puts at random, so the least
	// of several single warm runs is the figure.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(d *relation.Relation, c *cfd.CFD) float64 {
		var k Kernel
		least := -1.0
		for r := 0; r < 10; r++ {
			n := testing.AllocsPerRun(1, func() {
				pats, err := k.ViolationPatterns(d, c, Opts{Workers: 1})
				if err != nil || pats.Len() != 4 {
					t.Fatalf("ViolationPatterns = %v, %v; want the 4 mixed groups", pats, err)
				}
			})
			if least < 0 || n < least {
				least = n
			}
		}
		return least
	}
	small, large := build(1_000), build(100_000)
	if o, w := allocs(small, one), allocs(small, wide); w > o+4 {
		t.Errorf("64-row tableau allocates %v, the 1-row tableau %v", w, o)
	}
	if s, l := allocs(small, one), allocs(large, one); s != l {
		t.Errorf("10³ violating rows allocate %v, 10⁵ allocate %v", s, l)
	}
}
