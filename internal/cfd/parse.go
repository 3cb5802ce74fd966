package cfd

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Rule-file syntax, one CFD per line (long tableaux may continue over
// lines ending with a backslash):
//
//	# phi1 from the paper's Example 2
//	phi1: [CC, zip] -> [street] : (44, _ || _), (31, _ || _)
//	phi2: [CC, title] -> [salary]
//	phi3: [CC, AC] -> [city] : (44, 131 || EDI), (01, 908 || MH)
//
// The "name:" prefix is optional. A CFD without a tableau is a
// traditional FD (a single all-wildcard pattern). Values containing
// commas, pipes, parentheses, '#' or leading/trailing spaces must be
// double-quoted; inside quotes `\"` is a literal quote and `\\` a
// literal backslash. `_` is the wildcard (quoting does not escape it:
// the underscore is reserved and cannot occur as a data constant in
// rules).
// Rule and attribute names are taken verbatim and cannot contain a
// double quote: only values are quoted, and the comment scanner relies
// on it to tell a '#' inside a value from the start of a comment.

// Parse parses a single CFD definition.
func Parse(s string) (*CFD, error) {
	s = strings.TrimSpace(s)
	name := ""
	// Optional "name:" prefix — a colon before the first '['.
	if i := strings.Index(s, ":"); i >= 0 {
		if j := strings.Index(s, "["); j < 0 || i < j {
			name = strings.TrimSpace(s[:i])
			s = strings.TrimSpace(s[i+1:])
		}
	}
	if strings.Contains(name, `"`) {
		return nil, fmt.Errorf("cfd %q: rule name contains a double quote", name)
	}
	lhs, rest, err := parseBracketList(s)
	if err != nil {
		return nil, fmt.Errorf("cfd %q: %w", name, err)
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "->") {
		return nil, fmt.Errorf("cfd %q: expected '->' after LHS, got %q", name, rest)
	}
	rhs, rest, err := parseBracketList(strings.TrimSpace(rest[2:]))
	if err != nil {
		return nil, fmt.Errorf("cfd %q: %w", name, err)
	}
	rest = strings.TrimSpace(rest)
	var patterns []PatternTuple
	switch {
	case rest == "":
		// FD: single all-wildcard pattern.
		p := PatternTuple{LHS: make([]string, len(lhs)), RHS: make([]string, len(rhs))}
		for i := range p.LHS {
			p.LHS[i] = Wildcard
		}
		for i := range p.RHS {
			p.RHS[i] = Wildcard
		}
		patterns = []PatternTuple{p}
	case strings.HasPrefix(rest, ":"):
		patterns, err = parseTableau(strings.TrimSpace(rest[1:]), len(lhs), len(rhs))
		if err != nil {
			return nil, fmt.Errorf("cfd %q: %w", name, err)
		}
	default:
		return nil, fmt.Errorf("cfd %q: unexpected trailing input %q", name, rest)
	}
	return New(name, lhs, rhs, patterns)
}

// MustParse is Parse panicking on error; for fixtures.
func MustParse(s string) *CFD {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// ParseSet reads a rule file: one CFD per logical line, '#' comments,
// blank lines ignored, trailing backslash continues a line.
func ParseSet(r io.Reader) ([]*CFD, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []*CFD
	var pending strings.Builder
	lineNo := 0
	flush := func() error {
		line := strings.TrimSpace(pending.String())
		pending.Reset()
		if line == "" {
			return nil
		}
		c, err := Parse(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, c)
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := indexUnquoted(line, "#"); i >= 0 {
			line = line[:i]
		}
		trimmed := strings.TrimSpace(line)
		if strings.HasSuffix(trimmed, "\\") {
			pending.WriteString(strings.TrimSuffix(trimmed, "\\"))
			pending.WriteByte(' ')
			continue
		}
		pending.WriteString(trimmed)
		if err := flush(); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the CFD in the rule-file syntax; Parse(Format(c))
// reproduces c.
func Format(c *CFD) string {
	var b strings.Builder
	if c.Name != "" {
		b.WriteString(c.Name)
		b.WriteString(": ")
	}
	b.WriteString("[")
	b.WriteString(strings.Join(c.X, ", "))
	b.WriteString("] -> [")
	b.WriteString(strings.Join(c.Y, ", "))
	b.WriteString("]")
	if !c.IsFD() {
		b.WriteString(" : ")
		for i, p := range c.Tp {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			writeVals(&b, p.LHS)
			b.WriteString(" || ")
			writeVals(&b, p.RHS)
			b.WriteString(")")
		}
	}
	return b.String()
}

func writeVals(b *strings.Builder, vals []string) {
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteVal(v))
	}
}

func quoteVal(v string) string {
	if v == Wildcard {
		return Wildcard
	}
	if v == "" || v == "_" || strings.ContainsAny(v, ",()|\"[]:#") ||
		strings.TrimSpace(v) != v {
		return `"` + quoteEscaper.Replace(v) + `"`
	}
	return v
}

// quoteEscaper escapes a value for double quotes; parseValues inverts it.
var quoteEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// indexUnquoted returns the index of the first occurrence of sub in s
// that starts outside a double-quoted value, or -1. Inside quotes a
// backslash escapes the next byte, so an escaped quote does not close
// the value; an unterminated quote runs to the end of s.
func indexUnquoted(s, sub string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
			continue
		}
		if strings.HasPrefix(s[i:], sub) {
			return i
		}
	}
	return -1
}

// parseBracketList parses "[a, b, c]..." returning the names and the
// remainder of the input.
func parseBracketList(s string) ([]string, string, error) {
	if !strings.HasPrefix(s, "[") {
		return nil, "", fmt.Errorf("expected '[', got %q", truncate(s))
	}
	end := strings.Index(s, "]")
	if end < 0 {
		return nil, "", fmt.Errorf("missing ']' in %q", truncate(s))
	}
	inner := s[1:end]
	var names []string
	for _, part := range strings.Split(inner, ",") {
		p := strings.TrimSpace(part)
		if p == "" || strings.Contains(p, `"`) {
			return nil, "", fmt.Errorf("empty or quoted attribute name in %q", inner)
		}
		names = append(names, p)
	}
	return names, s[end+1:], nil
}

// parseTableau parses "(l1, l2 || r1), (l1, l2 || r1)".
func parseTableau(s string, nx, ny int) ([]PatternTuple, error) {
	var out []PatternTuple
	rest := strings.TrimSpace(s)
	for rest != "" {
		if !strings.HasPrefix(rest, "(") {
			return nil, fmt.Errorf("expected '(' at %q", truncate(rest))
		}
		end := indexUnquoted(rest, ")")
		if end < 0 {
			return nil, fmt.Errorf("missing ')' in %q", truncate(rest))
		}
		inner := rest[1:end]
		pt, err := parsePattern(inner, nx, ny)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
		rest = strings.TrimSpace(rest[end+1:])
		if rest == "" {
			break
		}
		if rest[0] != ',' && rest[0] != ';' {
			return nil, fmt.Errorf("expected pattern separator at %q", truncate(rest))
		}
		rest = strings.TrimSpace(rest[1:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty pattern tableau")
	}
	return out, nil
}

func parsePattern(inner string, nx, ny int) (PatternTuple, error) {
	sep := splitTopLevel(inner, "||")
	if len(sep) != 2 {
		return PatternTuple{}, fmt.Errorf("pattern %q must contain exactly one '||'", inner)
	}
	lhs, err := parseValues(sep[0])
	if err != nil {
		return PatternTuple{}, err
	}
	rhs, err := parseValues(sep[1])
	if err != nil {
		return PatternTuple{}, err
	}
	if len(lhs) != nx {
		return PatternTuple{}, fmt.Errorf("pattern %q has %d LHS values, want %d", inner, len(lhs), nx)
	}
	if len(rhs) != ny {
		return PatternTuple{}, fmt.Errorf("pattern %q has %d RHS values, want %d", inner, len(rhs), ny)
	}
	return PatternTuple{LHS: lhs, RHS: rhs}, nil
}

// splitTopLevel splits s on sep occurrences outside double quotes.
func splitTopLevel(s, sep string) []string {
	var parts []string
	for {
		i := indexUnquoted(s, sep)
		if i < 0 {
			return append(parts, s)
		}
		parts = append(parts, s[:i])
		s = s[i+len(sep):]
	}
}

func parseValues(s string) ([]string, error) {
	var out []string
	rest := strings.TrimSpace(s)
	for rest != "" {
		var val string
		if rest[0] == '"' {
			i := 1
			var b strings.Builder
			for ; i < len(rest); i++ {
				if rest[i] == '\\' && i+1 < len(rest) && (rest[i+1] == '"' || rest[i+1] == '\\') {
					i++
					b.WriteByte(rest[i])
					continue
				}
				if rest[i] == '"' {
					break
				}
				b.WriteByte(rest[i])
			}
			if i >= len(rest) {
				return nil, fmt.Errorf("unterminated quote in %q", s)
			}
			val = b.String()
			rest = strings.TrimSpace(rest[i+1:])
		} else {
			i := strings.Index(rest, ",")
			if i < 0 {
				val = strings.TrimSpace(rest)
				rest = ""
			} else {
				val = strings.TrimSpace(rest[:i])
				rest = rest[i:]
			}
			if val == "" {
				return nil, fmt.Errorf("empty value in %q", s)
			}
		}
		out = append(out, val)
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return nil, fmt.Errorf("expected ',' at %q", truncate(rest))
		}
		rest = strings.TrimSpace(rest[1:])
		if rest == "" {
			return nil, fmt.Errorf("trailing ',' in %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty value list in %q", s)
	}
	return out, nil
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}
