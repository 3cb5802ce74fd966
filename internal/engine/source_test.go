package engine

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/relation"
)

// Test-side access to the one kernel. The exported surface is
// Kernel.DetectSet / DetectSetReader / ViolationPatterns; the helpers
// here are the single-CFD and single-unit shorthands the tests keep
// asking for, plus the equivalence table every randomized and fuzz
// draw runs through.

// detectOne is Vio(φ, d) through Kernel.DetectSet.
func detectOne(d *relation.Relation, c *cfd.CFD, o Opts) ([]int, error) {
	return defaultKernel.DetectSet(d, []*cfd.CFD{c}, o)
}

// detectReader is Vio(φ, r) through Kernel.DetectSetReader.
func detectReader(r relation.ColumnReader, schema *relation.Schema, c *cfd.CFD) ([]int, error) {
	return defaultKernel.DetectSetReader(r, schema, []*cfd.CFD{c})
}

// patternsReader is Kernel.ViolationPatterns for a bare reader, which
// has no exported form: non-test callers always hold a Relation.
func patternsReader(r relation.ColumnReader, schema *relation.Schema, c *cfd.CFD) (pats *relation.Relation, err error) {
	err = defaultKernel.check(r, schema, []*cfd.CFD{c}, Opts{}, func(sc *detectScratch) (err error) {
		pats, err = sc.violationPatterns(schema, c)
		return err
	})
	return pats, err
}

// detectUnits marks the given normalized units over r in a fresh
// scratch, each as the one-pattern, one-attribute CFD it stands for,
// and returns the violating rows.
func detectUnits(r relation.ColumnReader, schema *relation.Schema, units []*cfd.Normalized) ([]int, error) {
	sc := &detectScratch{}
	sc.src.bind(r)
	sc.resetBits(r.Rows())
	for _, n := range units {
		c, err := cfd.New(n.Parent, n.X, []string{n.A}, []cfd.PatternTuple{{LHS: n.TpX, RHS: []string{n.TpA}}})
		if err != nil {
			return nil, err
		}
		if err := sc.detectCFD(schema, c, 1); err != nil {
			return nil, err
		}
	}
	return sc.violations(), nil
}

// openFragment persists r and opens it as a packed fragment.
func openFragment(t testing.TB, r *relation.Relation) *colstore.Fragment {
	t.Helper()
	path := filepath.Join(t.TempDir(), colstore.FragmentFile)
	if _, err := colstore.WriteRelation(path, r); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// packAt packs d's encoded columns at chunkRows rows per chunk
// (colstore.PackColumns itself at DefaultChunkRows) and adopts the
// payload as a relation's storage, the way a wire receive does.
func packAt(t testing.TB, d *relation.Relation, chunkRows int) *relation.Relation {
	t.Helper()
	e := d.Encoded()
	rows, arity := e.Rows(), e.Arity()
	var p *colstore.Packed
	var err error
	if chunkRows == colstore.DefaultChunkRows {
		dicts := make([]*relation.Dict, arity)
		cols := make([][]uint32, arity)
		for j := range cols {
			cols[j], dicts[j] = e.Column(j)
		}
		p, err = colstore.PackColumns(dicts, cols, rows)
	} else {
		parts := make([]colstore.PackedColumn, arity)
		for j := range parts {
			col, dict := e.Column(j)
			pc := colstore.PackedColumn{Dict: colstore.EncodeDictSection(nil, dict.Vals())}
			for lo := 0; lo < rows; lo += chunkRows {
				chunk, _, _ := colstore.EncodeChunk(nil, col[lo:min(lo+chunkRows, rows)])
				pc.Chunks = append(pc.Chunks, chunk)
			}
			parts[j] = pc
		}
		p, err = colstore.NewPacked(rows, chunkRows, parts)
	}
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relation.FromPackedReader(d.Schema(), p)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// sourceKind is one way the kernel gets at a relation's column IDs.
type sourceKind struct {
	name string
	rel  *relation.Relation    // through Kernel.DetectSet / ViolationPatterns, or
	r    relation.ColumnReader // (rel nil) through DetectSetReader / patternsReader
}

// sourceKinds renders d as every kind of column source the kernel
// reads: the tuple-built encoded view, shipped dict+ID columns, packed
// payloads at several chunk sizes, and a fragment file on disk — as a
// bare reader and adopted as a relation's packed storage.
func sourceKinds(t testing.TB, d *relation.Relation) []sourceKind {
	t.Helper()
	dicts, cols := d.Encoded().CompactColumns()
	fromCols, err := relation.FromColumns(d.Schema(), dicts, cols, d.Len())
	if err != nil {
		t.Fatal(err)
	}
	kinds := []sourceKind{
		{name: "tuples", rel: d},
		{name: "columns", rel: fromCols},
	}
	for _, cr := range []int{7, 64, colstore.DefaultChunkRows} {
		kinds = append(kinds, sourceKind{name: fmt.Sprintf("packed/%d", cr), rel: packAt(t, d, cr)})
	}
	frag := openFragment(t, d)
	fragRel, err := relation.FromPackedReader(d.Schema(), frag)
	if err != nil {
		t.Fatal(err)
	}
	return append(kinds,
		sourceKind{name: "fragment", r: frag},
		sourceKind{name: "fragment/packed", rel: fragRel})
}

// naiveOracleRows bounds the relations the quadratic oracle is asked
// about.
const naiveOracleRows = 600

// checkAllSources is the equivalence table: c over d through every
// source kind at workers 1, 2 and 4 must report exactly the violating
// rows of the row-path reference (and of the naive oracle, on inputs
// it can afford) and emit exactly the reference's X-patterns in the
// same order.
func checkAllSources(t testing.TB, d *relation.Relation, c *cfd.CFD) {
	t.Helper()
	want, err := DetectRows(d, c)
	if err != nil {
		t.Fatalf("reference path rejected a constructed case: %v", err)
	}
	if d.Len() <= naiveOracleRows {
		naive, err := cfd.NaiveViolations(d, c)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(want, naive) {
			t.Fatalf("rows-path %v != naive oracle %v", want, naive)
		}
	}
	// Pattern oracle: distinct violating X projections of the reference
	// indices, value-exact (length-prefixed keys), in ascending row
	// order — what ViolationPatterns must emit.
	xi, err := d.Schema().Indices(c.X)
	if err != nil {
		t.Fatal(err)
	}
	var wantPats []relation.Tuple
	seen := map[string]struct{}{}
	for _, i := range want {
		tup := d.Tuple(i)
		var key []byte
		for _, j := range xi {
			key = binary.AppendUvarint(key, uint64(len(tup[j])))
			key = append(key, tup[j]...)
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		wantPats = append(wantPats, tup.Project(xi))
	}

	for _, kind := range sourceKinds(t, d) {
		for _, w := range []int{1, 2, 4} {
			var k Kernel
			var got []int
			var pats *relation.Relation
			if kind.rel != nil {
				got, err = k.DetectSet(kind.rel, []*cfd.CFD{c}, Opts{Workers: w})
				if err == nil {
					pats, err = k.ViolationPatterns(kind.rel, c, Opts{Workers: w})
				}
			} else {
				got, err = k.DetectSetReader(kind.r, d.Schema(), []*cfd.CFD{c})
				if err == nil {
					pats, err = patternsReader(kind.r, d.Schema(), c)
				}
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind.name, w, err)
			}
			if !equalInts(got, want) {
				t.Fatalf("%s workers=%d: kernel %v != rows-path %v\nrelation: %v\ncfd: %v", kind.name, w, got, want, d, c)
			}
			if gotPats := pats.Tuples(); !(len(gotPats) == 0 && len(wantPats) == 0) && !reflect.DeepEqual(gotPats, wantPats) {
				t.Fatalf("%s workers=%d: patterns %v != oracle %v\ncfd: %v", kind.name, w, gotPats, wantPats, c)
			}
		}
	}
}
