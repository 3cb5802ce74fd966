package distcfd

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"distcfd/internal/core"
	"distcfd/internal/workload"
)

// TestFacadeQuickstart exercises the documented public workflow
// end-to-end: CSV in, rules parsed, partitioned, detected.
func TestFacadeQuickstart(t *testing.T) {
	var csv bytes.Buffer
	if err := WriteCSV(&csv, workload.EMPData()); err != nil {
		t.Fatal(err)
	}
	data, err := ReadCSV(bytes.NewReader(csv.Bytes()), "EMP", "id")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := ParseRules(strings.NewReader(`
# Example 2 of the paper
phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)
phi2: [CC, title] -> [salary]
phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	part, err := PartitionUniform(data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(part)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectOnce(context.Background(), cl, []*CFD{rules[0]}, PatDetectRT, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCFD[0].Len() != 2 {
		t.Errorf("phi1 patterns = %d, want 2", res.PerCFD[0].Len())
	}
	set, err := core.DetectOnce(context.Background(), cl, rules, PatDetectS, core.Options{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.PerCFD) != 3 {
		t.Errorf("PerCFD = %d", len(set.PerCFD))
	}
}

func TestFacadeCentral(t *testing.T) {
	d := workload.EMPData()
	rule, err := ParseCFD(`phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)`)
	if err != nil {
		t.Fatal(err)
	}
	pats, err := DetectCentral(d, rule)
	if err != nil {
		t.Fatal(err)
	}
	if pats.Len() != 2 {
		t.Errorf("central patterns = %d, want 2", pats.Len())
	}
	if got := FormatCFD(rule); !strings.Contains(got, "phi3") {
		t.Errorf("FormatCFD = %q", got)
	}
}

func TestFacadeVertical(t *testing.T) {
	d := workload.EMPData()
	cs := workload.EMPCFDs()
	frag := workload.EMPVerticalAttrSets()
	withKey := make([][]string, len(frag))
	for i, f := range frag {
		withKey[i] = append([]string{"id"}, f...)
	}
	if DependencyPreserving(cs, withKey) {
		t.Error("Example 1 partition should not preserve")
	}
	z, err := MinimumRefinement(cs, withKey, 20)
	if err != nil {
		t.Fatal(err)
	}
	if z.Size() != 3 {
		t.Errorf("minimum refinement = %d, want 3 (Example 7)", z.Size())
	}
	g := GreedyRefinement(cs, withKey)
	if !DependencyPreserving(cs, g.Apply(withKey)) {
		t.Error("greedy refinement not preserving")
	}
	v, err := PartitionVertical(d, frag)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectVertical(v, cs, VerticalOptions{SemiJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCFD) != 3 {
		t.Errorf("vertical PerCFD = %d", len(res.PerCFD))
	}
}

func TestFacadeSchemaAndFD(t *testing.T) {
	s, err := NewSchema("R", []string{"a", "b"}, "a")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation(s)
	if r.Len() != 0 {
		t.Error("fresh relation not empty")
	}
	fd, err := NewFD("f", []string{"a"}, []string{"b"})
	if err != nil || !fd.IsFD() {
		t.Errorf("NewFD: %v %v", fd, err)
	}
}
