package relation

import (
	"fmt"
	"testing"
)

// TestRenumberResetJudgesHighWater pins the pooled scratch's bound: a
// column over a dictionary of more than tableMax values goes through
// the map, and once a column has grown the map past tableMax entries,
// Reset drops it — even when a later, small column left it nearly
// empty (a map keeps its size when its entries are deleted). A Reset
// after small columns only keeps the buffers.
func TestRenumberResetJudgesHighWater(t *testing.T) {
	vals := make([]string, tableMax+2)
	for i := range vals {
		vals[i] = fmt.Sprint(i)
	}
	huge, err := NewDictFromVals(vals)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewDictFromVals([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	var rn Renumber
	rn.Start(small)
	if err := rn.Map(make([]uint32, 3), []uint32{1, 0, 1}); err != nil || len(rn.srcs) != 2 {
		t.Fatalf("small column: %d compact IDs, %v", len(rn.srcs), err)
	}
	rn.Reset()
	if rn.table == nil || rn.srcs == nil {
		t.Fatal("Reset after a small column dropped its buffers")
	}

	ids := make([]uint32, len(vals))
	for i := range ids {
		ids[i] = uint32(len(ids) - 1 - i)
	}
	rn.Start(huge)
	if err := rn.Map(ids, ids); err != nil || !rn.byMap || len(rn.srcs) != len(vals) || ids[0] != 0 || ids[len(ids)-1] != uint32(len(ids)-1) {
		t.Fatalf("huge column: map side %v, %d compact IDs, %v", rn.byMap, len(rn.srcs), err)
	}
	if err := rn.Map(ids[:1], []uint32{uint32(len(vals))}); err == nil {
		t.Fatal("an ID past the dictionary was mapped")
	}
	rn.Start(small)
	if err := rn.Map(ids[:2], []uint32{1, 1}); err != nil || rn.Len() != 1 || rn.Val(0) != "y" {
		t.Fatalf("small column after the huge one: %d values, %v", rn.Len(), err)
	}
	rn.Reset()
	if rn.m != nil || rn.srcs != nil || rn.counts != nil || rn.src != nil {
		t.Fatal("Reset kept a map and lists grown past tableMax entries")
	}
}
