package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

// Shared fixtures: the paper's running example (Fig. 1).

func empSchema() *relation.Schema {
	return relation.MustSchema("EMP",
		[]string{"id", "name", "title", "CC", "AC", "phn", "street", "city", "zip", "salary"},
		"id")
}

func empD0() *relation.Relation {
	return relation.MustFromRows(empSchema(),
		[]string{"1", "Sam", "DMTS", "44", "131", "8765432", "Princess Str.", "EDI", "EH2 4HF", "95k"},
		[]string{"2", "Mike", "MTS", "44", "131", "1234567", "Mayfield", "NYC", "EH4 8LE", "80k"},
		[]string{"3", "Rick", "DMTS", "44", "131", "3456789", "Mayfield", "NYC", "EH4 8LE", "95k"},
		[]string{"4", "Philip", "DMTS", "44", "131", "2909209", "Crichton", "EDI", "EH4 8LE", "95k"},
		[]string{"5", "Adam", "VP", "44", "131", "7478626", "Mayfield", "EDI", "EH4 8LE", "200k"},
		[]string{"6", "Joe", "MTS", "01", "908", "1416282", "Mtn Ave", "NYC", "07974", "110k"},
		[]string{"7", "Bob", "DMTS", "01", "908", "2345678", "Mtn Ave", "MH", "07974", "150k"},
		[]string{"8", "Jef", "DMTS", "31", "20", "8765432", "Muntplein", "AMS", "1012 WR", "90k"},
		[]string{"9", "Steven", "MTS", "31", "20", "1425364", "Spuistraat", "AMS", "1012 WR", "75k"},
		[]string{"10", "Bram", "MTS", "31", "10", "2536475", "Kruisplein", "ROT", "3012 CC", "75k"},
	)
}

var (
	phi1 = cfd.MustParse(`phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)`)
	phi2 = cfd.MustParse(`phi2: [CC, title] -> [salary]`)
	phi3 = cfd.MustParse(`phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)`)
)

// oneResult flattens a one-CFD run for assertions: the run's Result,
// its only unit's detail, and the CFD's violation patterns.
type oneResult struct {
	*Result
	UnitReport
	Patterns *relation.Relation
}

func flattenOne(res *Result, err error) (*oneResult, error) {
	if err != nil {
		return nil, err
	}
	return &oneResult{Result: res, UnitReport: res.Units[0], Patterns: res.PerCFD[0]}, nil
}

// compileOne compiles c as a plan of one.
func compileOne(ctx context.Context, cl *Cluster, c *cfd.CFD, algo Algorithm, opt Options) (*Plan, error) {
	return CompileSet(ctx, cl, []*cfd.CFD{c}, algo, opt, false)
}

// detectOne compiles c as a plan of one and runs it once.
func detectOne(ctx context.Context, cl *Cluster, c *cfd.CFD, algo Algorithm, opt Options) (*oneResult, error) {
	return flattenOne(DetectOnce(ctx, cl, []*cfd.CFD{c}, algo, opt, false))
}

// fig1bCluster builds the Fig. 1(b) horizontal partition as an
// in-process cluster: fragment order is DH1 (MTS) = S0, DH2 (DMTS) =
// S1, DH3 (VP) = S2 — i.e. the paper's S1, S2, S3 shifted to 0-based.
func fig1bCluster(t *testing.T) *Cluster {
	t.Helper()
	d := empD0()
	preds := []relation.Predicate{
		relation.And(relation.Eq("title", "MTS")),
		relation.And(relation.Eq("title", "DMTS")),
		relation.And(relation.Eq("title", "VP")),
	}
	h, err := partition.ByPredicates(d, preds)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// uniformCluster partitions empD0 uniformly (unknown predicates).
func uniformCluster(t *testing.T, n int, seed int64) *Cluster {
	t.Helper()
	h, err := partition.Uniform(empD0(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// patternsOf renders an X-pattern relation as a set of joined strings.
func patternsOf(r *relation.Relation) map[string]bool {
	// Join is fine here: the fixtures' values are separator-free, and
	// the joined form keeps the wantPatterns literals readable.
	out := map[string]bool{}
	for _, t := range r.Tuples() {
		out[strings.Join(t, "\x1f")] = true
	}
	return out
}

func wantPatterns(t *testing.T, label string, got *relation.Relation, want ...string) {
	t.Helper()
	g := patternsOf(got)
	if len(g) != len(want) {
		t.Errorf("%s: got %d patterns %v, want %d %v", label, len(g), keys(g), len(want), want)
		return
	}
	for _, w := range want {
		if !g[w] {
			t.Errorf("%s: missing pattern %q in %v", label, w, keys(g))
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// randomRelation builds a random instance over 4 small-domain
// attributes plus a unique key.
func randomRelation(rng *rand.Rand, n int) *relation.Relation {
	s := relation.MustSchema("R", []string{"id", "a", "b", "c", "d"}, "id")
	d := relation.New(s)
	for i := 0; i < n; i++ {
		d.MustAppend(relation.Tuple{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("a%d", rng.Intn(3)),
			fmt.Sprintf("b%d", rng.Intn(3)),
			fmt.Sprintf("c%d", rng.Intn(2)),
			fmt.Sprintf("d%d", rng.Intn(4)),
		})
	}
	return d
}

// randomTestCFD builds a random CFD over {a,b,c,d}.
func randomTestCFD(rng *rand.Rand) *cfd.CFD {
	attrs := []string{"a", "b", "c", "d"}
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	nx := 1 + rng.Intn(2)
	x := attrs[:nx]
	y := attrs[nx : nx+1]
	k := 1 + rng.Intn(4)
	var pats []cfd.PatternTuple
	for p := 0; p < k; p++ {
		lhs := make([]string, nx)
		for i := range lhs {
			if rng.Intn(2) == 0 {
				lhs[i] = cfd.Wildcard
			} else {
				lhs[i] = fmt.Sprintf("%s%d", x[i], rng.Intn(3))
			}
		}
		rhs := []string{cfd.Wildcard}
		if rng.Intn(4) == 0 {
			rhs[0] = fmt.Sprintf("%s%d", y[0], rng.Intn(3))
		}
		pats = append(pats, cfd.PatternTuple{LHS: lhs, RHS: rhs})
	}
	return cfd.MustNew("rnd", x, y, pats)
}
