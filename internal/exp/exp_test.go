package exp

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests while
// keeping the shape-producing structure.
func tiny() Config {
	return Config{Scale: 0.004, Seed: 42, ErrRate: 0.02}
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

// columns transposes a series for the shape checks: column name →
// values down the X axis.
func columns(s *Series) map[string][]float64 {
	out := make(map[string][]float64, len(s.Columns))
	for _, row := range s.Rows {
		for j, v := range row {
			out[s.Columns[j]] = append(out[s.Columns[j]], v)
		}
	}
	return out
}

func TestExp1CustShapes(t *testing.T) {
	s, err := Exp1Cust(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	if len(s.XS) != 7 || len(s.Columns) != 3 {
		t.Fatalf("series shape: %d × %d", len(s.XS), len(s.Columns))
	}
	ctr, rt := c["CTRDetect"], c["PatDetectRT"]
	// Paper: response time decreases as |S| grows.
	if last(ctr) >= ctr[0] {
		t.Errorf("CTRDetect did not decrease with sites: %v", ctr)
	}
	if last(rt) >= rt[0] {
		t.Errorf("PatDetectRT did not decrease with sites: %v", rt)
	}
	// Paper: CTRDetect is outperformed by the pattern algorithms.
	for i := range s.XS {
		if rt[i] > ctr[i] {
			t.Errorf("at %v sites PatDetectRT (%.3f) above CTRDetect (%.3f)",
				s.XS[i], rt[i], ctr[i])
		}
	}
}

func TestExp1XrefShapes(t *testing.T) {
	s, err := Exp1Xref(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	ctr, rt := c["CTRDetect"], c["PatDetectRT"]
	if last(ctr) >= ctr[0] || last(rt) >= rt[0] {
		t.Errorf("times did not decrease: ctr=%v rt=%v", ctr, rt)
	}
}

func TestExp2LinearInData(t *testing.T) {
	s, err := Exp2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	for _, col := range []string{"CTRDetect", "PatDetectRT"} {
		v := c[col]
		// Monotone growth.
		for i := 1; i < len(v); i++ {
			if v[i] < v[i-1]*0.95 {
				t.Errorf("%s not increasing with |D|: %v", col, v)
				break
			}
		}
		// Near-linear: 10x data within [5x, 20x] cost.
		ratio := last(v) / v[0]
		if ratio < 5 || ratio > 20 {
			t.Errorf("%s 10x-data cost ratio %.1f outside [5,20]: %v", col, ratio, v)
		}
	}
	// PatDetectRT at least 2x faster at the largest size (paper).
	if last(c["CTRDetect"]) < 1.5*last(c["PatDetectRT"]) {
		t.Errorf("CTR/PatRT gap too small at max |D|: %v vs %v",
			last(c["CTRDetect"]), last(c["PatDetectRT"]))
	}
}

func TestExp3GrowsWithTableau(t *testing.T) {
	s, err := Exp3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	for _, col := range []string{"CTRDetect", "PatDetectRT"} {
		v := c[col]
		if last(v) <= v[0] {
			t.Errorf("%s did not grow with |Tp|: %v", col, v)
		}
	}
	ctr, rt := c["CTRDetect"], c["PatDetectRT"]
	for i := range ctr {
		if rt[i] > ctr[i] {
			t.Errorf("PatDetectRT above CTRDetect at k=%v", s.XS[i])
		}
	}
}

func TestExp4MiningReducesShipment(t *testing.T) {
	s, err := Exp4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	plain, mined := c["PatDetectS"], c["PatDetectS+mining"]
	// Plain is a flat baseline (no θ dependence).
	for i := 1; i < len(plain); i++ {
		if plain[i] != plain[0] {
			t.Errorf("plain shipment should not depend on θ: %v", plain)
			break
		}
	}
	// At small θ mining reduces shipment substantially (paper: up to
	// ~80%); here external_db is one of the two FD attributes, so the
	// by-type fragmentation keeps mined blocks largely local.
	if mined[0] > 0.5*plain[0] {
		t.Errorf("mining at θ=%.2f saved too little: %v vs %v", s.XS[0], mined[0], plain[0])
	}
	// Mining never ships more than plain.
	for i := range mined {
		if mined[i] > plain[i] {
			t.Errorf("mining increased shipment at θ=%.2f", s.XS[i])
		}
	}
	// Benefit fades as θ grows (fewer frequent patterns survive); by
	// θ = 1.0 no pattern is mined and shipment returns to the baseline.
	if last(mined) < mined[0] {
		t.Errorf("mining benefit should fade with θ: %v", mined)
	}
	if last(mined) < 0.9*last(plain) {
		t.Errorf("at θ=1.0 mining should match the baseline: %v vs %v", last(mined), last(plain))
	}
}

func TestExp5ClustBeatsSeq(t *testing.T) {
	s, err := Exp5ShipXref(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	seq, clu := c["sequential"], c["clustered"]
	for i := range seq {
		if clu[i] > seq[i] {
			t.Errorf("clustered shipped more at %v sites: %v > %v", s.XS[i], clu[i], seq[i])
		}
	}
	// The gap is substantial (paper: ≥100K tuples at full scale).
	if clu[len(clu)-1] > 0.8*seq[len(seq)-1] {
		t.Errorf("shipment gap too small: clust=%v seq=%v", clu, seq)
	}

	g, err := Exp5TimeXref(tiny())
	if err != nil {
		t.Fatal(err)
	}
	gc := columns(g)
	seqT, cluT := gc["sequential"], gc["clustered"]
	for i := range seqT {
		if cluT[i] > seqT[i]*1.05 {
			t.Errorf("clustered slower at %v sites: %v > %v", g.XS[i], cluT[i], seqT[i])
		}
	}
}

func TestExp6ClustBeatsSeqAcrossSizes(t *testing.T) {
	s, err := Exp6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	seq, clu := c["sequential"], c["clustered"]
	for i := range seq {
		if clu[i] > seq[i]*1.05 {
			t.Errorf("clustered slower at %v tuples", s.XS[i])
		}
	}
	if last(seq) <= seq[0] {
		t.Errorf("sequential not growing with |D|: %v", seq)
	}
}

func TestSeriesPrint(t *testing.T) {
	s := &Series{
		Figure: "Fig X", Title: "t", XLabel: "x", Unit: "u",
		Columns: []string{"a", "b"},
		XS:      []float64{1, 2},
		Rows:    [][]float64{{1, 2}, {3, 4}},
	}
	var buf bytes.Buffer
	s.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Fig X", "unit: u", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := &Series{
		Figure: "Fig X", Title: "t", XLabel: "sites", Unit: "u",
		Columns: []string{"a", "b"},
		XS:      []float64{2, 4},
		Rows:    [][]float64{{1.5, 2}, {3, 4.25}},
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "sites,a,b\n2,1.5,2\n4,3,4.25\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow in -short mode")
	}
	var buf bytes.Buffer
	series, err := RunAll(Config{Scale: 0.002, Seed: 1, ErrRate: 0.02}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 10 {
		t.Errorf("RunAll produced %d series, want 10", len(series))
	}
	for _, fig := range []string{"3(a)", "3(b)", "3(c)", "3(d)", "3(e)", "3(f)", "3(g)", "3(h)", "3(i)", "Inc"} {
		if !strings.Contains(buf.String(), fig) {
			t.Errorf("output missing figure %s", fig)
		}
	}
}

func TestExpIncrementalShape(t *testing.T) {
	s, err := ExpIncremental(tiny())
	if err != nil {
		t.Fatal(err)
	}
	c := columns(s)
	if len(s.XS) != 5 || len(s.Columns) != 2 {
		t.Fatalf("series shape: %d × %d", len(s.XS), len(s.Columns))
	}
	inc, full := c["incremental (delta channel)"], c["full recompute"]
	// The delta channel undercuts the full recompute at every fraction
	// and by ≥5× at the smallest ones (the acceptance floor is at 1%).
	for i := range s.XS {
		if inc[i] >= full[i] {
			t.Errorf("at ΔD=%.1f%% incremental shipped %.0f ≥ full %.0f", s.XS[i], inc[i], full[i])
		}
	}
	if inc[0]*5 > full[0] {
		t.Errorf("at the smallest ΔD the saving is below 5×: %v vs %v", inc[0], full[0])
	}
	// The delta channel grows with |ΔD|.
	if last(inc) <= inc[0] {
		t.Errorf("delta shipments do not grow with ΔD: %v", inc)
	}
}
