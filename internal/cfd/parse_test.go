package cfd

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	c, err := Parse(`phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Name != "phi1" {
		t.Errorf("Name = %q", c.Name)
	}
	if len(c.X) != 2 || c.X[0] != "CC" || c.X[1] != "zip" {
		t.Errorf("X = %v", c.X)
	}
	if len(c.Y) != 1 || c.Y[0] != "street" {
		t.Errorf("Y = %v", c.Y)
	}
	if len(c.Tp) != 2 || c.Tp[0].LHS[0] != "44" || c.Tp[1].LHS[0] != "31" {
		t.Errorf("Tp = %v", c.Tp)
	}
}

func TestParseFD(t *testing.T) {
	c, err := Parse(`[CC, title] -> [salary]`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !c.IsFD() {
		t.Error("tableau-free rule should parse as FD")
	}
	if c.Name != "" {
		t.Errorf("unnamed rule got name %q", c.Name)
	}
}

func TestParseQuotedValues(t *testing.T) {
	c, err := Parse(`q: [zip] -> [street] : ("EH4 8LE" || "Princess, Str."), ("a\"b" || _)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Tp[0].LHS[0] != "EH4 8LE" {
		t.Errorf("quoted LHS = %q", c.Tp[0].LHS[0])
	}
	if c.Tp[0].RHS[0] != "Princess, Str." {
		t.Errorf("quoted RHS with comma = %q", c.Tp[0].RHS[0])
	}
	if c.Tp[1].LHS[0] != `a"b` {
		t.Errorf("escaped quote = %q", c.Tp[1].LHS[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`[a] [b]`,
		`[a] -> b`,
		`[] -> [b]`,
		`[a] -> [b] : (x)`,            // missing ||
		`[a] -> [b] : (x, y || z)`,    // LHS arity
		`[a] -> [b] : (x || y, z)`,    // RHS arity
		`[a] -> [b] : (x || y`,        // missing )
		`[a] -> [b] : (x || y) trail`, // garbage
		`[a] -> [b] :`,                // empty tableau
		`[a] -> [b] : ("x || y)`,      // unterminated quote
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseSetWithCommentsAndContinuations(t *testing.T) {
	input := `
# the paper's Example 2
phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)

phi2: [CC, title] -> [salary]   # trailing comment
phi3: [CC, AC] -> [city] : (44, 131 || EDI), \
      (01, 908 || MH)
`
	cs, err := ParseSet(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ParseSet: %v", err)
	}
	if len(cs) != 3 {
		t.Fatalf("parsed %d CFDs, want 3", len(cs))
	}
	if cs[2].Name != "phi3" || len(cs[2].Tp) != 2 {
		t.Errorf("phi3 = %v", cs[2])
	}
	if cs[2].Tp[1].RHS[0] != "MH" {
		t.Errorf("continuation lost: %v", cs[2].Tp[1])
	}
}

func TestParseSetErrorsCarryLineNumbers(t *testing.T) {
	input := "phi: [a] -> [b]\nbroken line here\n"
	_, err := ParseSet(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should mention line 2: %v", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	fixtures := []*CFD{
		phi1(), phi2(), phi3(),
		MustNew("odd", []string{"a", "b"}, []string{"c", "d"}, []PatternTuple{
			{LHS: []string{"x,1", "with space"}, RHS: []string{`say "hi"`, "_"}},
			{LHS: []string{"_", "(par)"}, RHS: []string{"", "v|w"}},
		}),
	}
	for _, c := range fixtures {
		text := Format(c)
		back, err := Parse(text)
		if err != nil {
			t.Errorf("%s: Parse(Format) failed: %v\n%s", c.Name, err, text)
			continue
		}
		if Format(back) != text {
			t.Errorf("%s: round trip differs:\n%s\n%s", c.Name, text, Format(back))
		}
		if len(back.Tp) != len(c.Tp) || len(back.X) != len(c.X) || len(back.Y) != len(c.Y) {
			t.Errorf("%s: structure lost in round trip", c.Name)
		}
	}
}

func TestFormatFDOmitsTableau(t *testing.T) {
	s := Format(phi2())
	if strings.Contains(s, "(") {
		t.Errorf("FD format should omit tableau: %q", s)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("not a cfd")
}

// BenchmarkParseRules measures the rule-file parser on a 50-rule file.
func BenchmarkParseRules(b *testing.B) {
	var text strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&text, "r%d: [CC, AC, zip] -> [city] : (44, %02d, _ || _), (31, %02d, _ || _)\n", i, i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rules, err := ParseSet(strings.NewReader(text.String())); err != nil || len(rules) != 50 {
			b.Fatalf("parsed %d rules, err %v", len(rules), err)
		}
	}
}
