package mining

import (
	"testing"

	"distcfd/internal/relation"
)

// Regression tests for the separator-join key bugs (distcfdvet
// keyjoin) in the miner's itemset and pattern keys.

func TestItemsetKeyInjective(t *testing.T) {
	// Old format "%d=%s" joined with \x1f: {0:"a\x1f1=b"} and
	// {0:"a", 1:"b"} both rendered "0=a\x1f1=b", fusing their support
	// counts.
	a := itemset{{pos: 0, val: "a\x1f1=b"}}
	b := itemset{{pos: 0, val: "a"}, {pos: 1, val: "b"}}
	if a.key() == b.key() {
		t.Error("itemset.key collides across the old separator/format boundary")
	}
	// Position ambiguity: {1:"2x"} vs {12:"x"} ("1=2x" vs "12=x" never
	// collided, but uvarint framing must keep them apart too).
	c := itemset{{pos: 1, val: "2x"}}
	d := itemset{{pos: 12, val: "x"}}
	if c.key() == d.key() {
		t.Error("itemset.key collides on position boundaries")
	}
}

func TestMergeRankedSeparatorValues(t *testing.T) {
	p1 := Pattern{Vals: []string{"b\x1f", ""}, RelSupport: 0.9}
	p2 := Pattern{Vals: []string{"b", "\x1f"}, RelSupport: 0.5}
	out := MergeRanked([]Pattern{p1}, []Pattern{p2})
	if len(out) != 2 {
		t.Fatalf("MergeRanked fused distinct patterns: got %d, want 2", len(out))
	}
	// A true duplicate keeps the max support.
	out = MergeRanked([]Pattern{p1}, []Pattern{{Vals: []string{"b\x1f", ""}, RelSupport: 0.95}})
	if len(out) != 1 || out[0].RelSupport != 0.95 {
		t.Errorf("MergeRanked dup handling = %+v, want one pattern at 0.95", out)
	}
}

// TestMiningSeparatorData mines a fragment whose values contain the
// old separator and checks the supports are not cross-contaminated.
func TestMiningSeparatorData(t *testing.T) {
	s := relation.MustSchema("R", []string{"a", "b"})
	frag := relation.New(s)
	rows := []relation.Tuple{
		{"a\x1f1=b", "q"}, // value that forged an {0:"a",1:"b"} itemset key
		{"a\x1f1=b", "q"},
		{"a", "b"},
		{"a", "b"},
	}
	for _, r := range rows {
		if err := frag.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := ClosedPatternsWithSupport(frag, []string{"a", "b"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		// Each closed pattern's support must reflect its own rows only:
		// both distinct (a,b) combinations occur in exactly half the rows.
		if p.RelSupport != 0.5 {
			t.Errorf("pattern %q has support %v, want 0.5 (supports cross-contaminated)", p.Vals, p.RelSupport)
		}
	}
	if len(ps) != 2 {
		t.Errorf("mined %d closed patterns, want the 2 distinct value pairs: %+v", len(ps), ps)
	}
}
