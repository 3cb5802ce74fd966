package core

import (
	"context"
	"errors"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

func clusterOver(t *testing.T, data *relation.Relation, sites, seed int) *Cluster {
	t.Helper()
	h, err := partition.Uniform(data, sites, int64(seed))
	if err != nil {
		t.Fatal(err)
	}
	apis := make([]SiteAPI, h.N())
	for i, frag := range h.Fragments {
		apis[i] = NewSite(i, frag, relation.True())
	}
	cl, err := NewCluster(h.Schema, apis)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestCompileSetInconsistentSigma(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 200, Seed: 3, ErrRate: 0})
	cl := clusterOver(t, data, 2, 1)
	clash := []*cfd.CFD{
		cfd.MustNew("c1", []string{"CC"}, []string{"city"},
			[]cfd.PatternTuple{{LHS: []string{cfd.Wildcard}, RHS: []string{"x"}}}),
		cfd.MustNew("c2", []string{"CC"}, []string{"city"},
			[]cfd.PatternTuple{{LHS: []string{cfd.Wildcard}, RHS: []string{"y"}}}),
	}
	ctx := context.Background()
	_, err := CompileSet(ctx, cl, clash, PatDetectS, Options{Sigma: SigmaCheck}, false)
	var ie *cfd.InconsistentError
	if !errors.As(err, &ie) {
		t.Fatalf("CompileSet(SigmaCheck) = %v, want *cfd.InconsistentError", err)
	}
	if ie.Witness.Attr != "city" {
		t.Errorf("witness attr = %q, want city", ie.Witness.Attr)
	}
	// SigmaOff keeps the legacy behavior: an inconsistent Σ compiles
	// (every matching tuple violates it).
	if _, err := CompileSet(ctx, cl, clash, PatDetectS, Options{}, false); err != nil {
		t.Fatalf("CompileSet(SigmaOff) on inconsistent Σ: %v", err)
	}
}

// TestCompileSetSigmaCheckReportsDuplicates pins what SigmaCheck does
// with a consistent Σ that carries a copy: the report names the group
// and the plan still compiles every CFD as given.
func TestCompileSetSigmaCheckReportsDuplicates(t *testing.T) {
	data := workload.Cust(workload.CustConfig{N: 200, Seed: 3, ErrRate: 0})
	cl := clusterOver(t, data, 2, 1)
	base := workload.CustPatternCFD(12)
	dup := *base
	dup.Name = "cust_dup"
	rules := []*cfd.CFD{base, &dup, workload.CustStreetCFD()}
	ctx := context.Background()
	p, err := CompileSet(ctx, cl, rules, PatDetectS, Options{Sigma: SigmaCheck}, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.SigmaReport()
	if rep == nil || len(rep.Duplicates) != 1 || len(rep.Duplicates[0]) != 2 {
		t.Fatalf("Σ report = %+v, want one duplicate group of two", rep)
	}
	if len(p.clusters) != len(rules) {
		t.Errorf("SigmaCheck compiled %d units for %d CFDs", len(p.clusters), len(rules))
	}
	off, err := CompileSet(ctx, cl, rules, PatDetectS, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if off.SigmaReport() != nil {
		t.Errorf("SigmaOff retained a report: %+v", off.SigmaReport())
	}
}
