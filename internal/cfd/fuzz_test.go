package cfd

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRules holds the rule-file parser — the decoder of the one
// text format operators write by hand — to its contract on arbitrary
// bytes: ParseSet either reports an error or returns CFDs whose Format
// rendering parses back to the same CFDs (Parse(Format(c)) reproduces
// c). Nothing may panic.
func FuzzParseRules(f *testing.F) {
	f.Add("# phi1 from the paper's Example 2\nphi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)\nphi2: [CC, title] -> [salary]\n")
	f.Add(`odd: [a, b] -> [c, d] : ("x,1", "with space" || "say \"hi\"", _), (_, "(par)" || "", "v|w")`)
	f.Add("long: [a] -> [b] : (1 || 2), \\\n  (3 || 4); (5 || 6)")
	f.Add(`[a] -> [b] : ("x#y" || "_") # trailing comment`)
	f.Add("n: [a:b] -> [c] : (\\\" || z)")
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := ParseSet(strings.NewReader(text))
		if err != nil {
			return
		}
		lines := make([]string, len(rules))
		for i, c := range rules {
			lines[i] = Format(c)
		}
		rendered := strings.Join(lines, "\n")
		back, err := ParseSet(strings.NewReader(rendered))
		if err != nil {
			t.Fatalf("Format output does not parse: %v\ninput:    %q\nrendered: %q", err, text, rendered)
		}
		if !reflect.DeepEqual(rules, back) {
			t.Fatalf("round trip changed the rules\ninput:    %q\nrendered: %q\nfirst:  %v\nsecond: %v", text, rendered, rules, back)
		}
	})
}
