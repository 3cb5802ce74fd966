package distcfd

// Cross-representation equivalence: the dictionary-encoded execution
// path (engine.Kernel.DetectSet, BlockSpec.AssignAll) must agree, bit
// for bit, with the row-oriented string-key path (engine.DetectRows /
// per-tuple BlockSpec.Assign) and with the naive oracle, over the
// repo's three workloads plus adversarial values sitting next to the
// 0x1f key separator of the row path.

import (
	"context"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/engine"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// equivSamples returns named (relation, CFD set) pairs covering EMP,
// CUST and XREF, each with extra tuples whose values contain bytes
// adjacent to the 0x1f separator (0x1e, 0x20), multi-byte runes, and
// empty strings.
func equivSamples(tb testing.TB) []struct {
	name string
	d    *relation.Relation
	cfds []*cfd.CFD
} {
	tb.Helper()
	// EMP attrs: id, name, title, CC, AC, phn, street, city, zip, salary.
	emp := workload.EMPData()
	emp.MustAppend(relation.Tuple{"11", ": ,™", "MTS\x1e", "01\x1e", "908", "2909209", "Mtn\x20Ave", "NYC", "07974", ""})
	emp.MustAppend(relation.Tuple{"12", "", "MTS\x1e", "01", "\x1e908", "2909209", "Mtn\x20Ave", "NYC", "07974", "80k"})

	// CUST attrs: id, name, CC, AC, phn, street, city, zip, title, price, qty.
	cust := workload.Cust(workload.CustConfig{N: 4_000, Seed: 7, ErrRate: 0.02})
	cust.MustAppend(relation.Tuple{"x1", "n\x1en", "44\x1e", "4408", "", "street \x1e1", "city™", "zip\x201", "t1", "9.9", "1"})
	cust.MustAppend(relation.Tuple{"x2", "n\x1en", "44", "\x1e4408", "ph", "street \x1e1", "city™", "zip\x202", "t1", "8.5", "2"})
	cust.MustAppend(relation.Tuple{"x3", "n\x20n", "44\x1e", "4408", "", "street 2", "city™", "zip\x201", "t2", "7", "3"})

	xref := workload.XRef(workload.XRefConfig{N: 4_000, Seed: 11, ErrRate: 0.02})

	return []struct {
		name string
		d    *relation.Relation
		cfds []*cfd.CFD
	}{
		{"EMP", emp, workload.EMPCFDs()},
		{"CUST", cust, []*cfd.CFD{
			workload.CustPatternCFD(32),
			workload.CustStreetCFD(),
			cfd.MustParse(`e1: [name] -> [phn]`),
			cfd.MustParse(`e2: [street, city] -> [zip]`),
		}},
		{"XREF", xref, []*cfd.CFD{workload.XRefCFD(), workload.XRefCFD2(), workload.XRefMiningFD()}},
	}
}

// kern is the detection kernel the encoded side calls check through.
var kern engine.Kernel

func TestEncodedDetectMatchesRowPath(t *testing.T) {
	for _, sample := range equivSamples(t) {
		t.Run(sample.name, func(t *testing.T) {
			for _, c := range sample.cfds {
				encoded, err := kern.DetectSet(sample.d, []*cfd.CFD{c}, engine.Opts{})
				if err != nil {
					t.Fatalf("%s: encoded: %v", c.Name, err)
				}
				rows, err := engine.DetectRows(sample.d, c)
				if err != nil {
					t.Fatalf("%s: rows: %v", c.Name, err)
				}
				if !equalInts(encoded, rows) {
					t.Errorf("%s: encoded path found %d violations, row path %d",
						c.Name, len(encoded), len(rows))
				}
				// The naive oracle is quadratic; spot-check small inputs only.
				if sample.d.Len() <= 100 {
					naive, err := cfd.NaiveViolations(sample.d, c)
					if err != nil {
						t.Fatal(err)
					}
					if !equalInts(encoded, naive) {
						t.Errorf("%s: encoded path disagrees with naive oracle", c.Name)
					}
				}
			}
			encSet, err := kern.DetectSet(sample.d, sample.cfds, engine.Opts{})
			if err != nil {
				t.Fatal(err)
			}
			rowSet, err := engine.DetectSetRows(sample.d, sample.cfds)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(encSet, rowSet) {
				t.Errorf("DetectSet: encoded %d violations, rows %d", len(encSet), len(rowSet))
			}
		})
	}
}

// TestEncodedSigmaMatchesRowPath pins the σ-routing equivalence: the
// single-pass encoded AssignAll must agree with the per-tuple
// string-key Assign for every tuple of every sample.
func TestEncodedSigmaMatchesRowPath(t *testing.T) {
	for _, sample := range equivSamples(t) {
		t.Run(sample.name, func(t *testing.T) {
			for _, c := range sample.cfds {
				view, ok := c.VariableView()
				if !ok {
					continue
				}
				spec, err := core.SpecFromCFD(view)
				if err != nil {
					t.Fatal(err)
				}
				assign, counts, err := spec.AssignAll(sample.d)
				if err != nil {
					t.Fatal(err)
				}
				xi, err := sample.d.Schema().Indices(spec.X)
				if err != nil {
					t.Fatal(err)
				}
				wantCounts := make([]int, spec.K())
				buf := make([]string, len(xi))
				for i, tp := range sample.d.Tuples() {
					for j, col := range xi {
						buf[j] = tp[col]
					}
					want := spec.Assign(buf)
					if assign[i] != want {
						t.Fatalf("%s: tuple %d: encoded σ=%d, row σ=%d", c.Name, i, assign[i], want)
					}
					if want >= 0 {
						wantCounts[want]++
					}
				}
				if !equalInts(counts, wantCounts) {
					t.Errorf("%s: lstat differs: %v vs %v", c.Name, counts, wantCounts)
				}
			}
		})
	}
}

// TestEncodedLazyBuildUnderParDetect runs the parallel multi-CFD
// detector against freshly built (never-encoded) fragments: the lazy
// per-column construction races only if its synchronization is broken,
// which `go test -race` turns into a failure. Results are compared
// against the sequential strategy for equality of patterns, shipment and modeled
// time.
func TestEncodedLazyBuildUnderParDetect(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 6_000, Seed: 3, ErrRate: 0.01})
	rules := []*cfd.CFD{
		workload.CustPatternCFD(16),
		cfd.MustParse(`p1: [name] -> [phn]`),
		cfd.MustParse(`p2: [street, city] -> [zip]`),
		cfd.MustParse(`p3: [CC, title] -> [price]`),
	}
	freshCluster := func() *Cluster {
		h, err := partition.Uniform(data.Clone(), 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := core.FromHorizontal(h)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	seq, err := core.DetectOnce(context.Background(), freshCluster(), rules, core.PatDetectRT, core.Options{Workers: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.DetectOnce(context.Background(), freshCluster(), rules, PatDetectRT, core.Options{Workers: 8}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rules {
		if !seq.PerCFD[i].SameTuples(par.PerCFD[i]) {
			t.Errorf("%s: parallel patterns differ from sequential", rules[i].Name)
		}
	}
	if seq.ShippedTuples != par.ShippedTuples {
		t.Errorf("ShippedTuples %d != %d", seq.ShippedTuples, par.ShippedTuples)
	}
	if seq.ModeledTime != par.ModeledTime {
		t.Errorf("ModeledTime %v != %v", seq.ModeledTime, par.ModeledTime)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
