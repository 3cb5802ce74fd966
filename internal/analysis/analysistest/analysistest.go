// Package analysistest runs an analyzer over a fixture directory and
// checks its diagnostics against // want "regex" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib alone.
// Fixtures live under testdata/src/<name> and may import only the
// standard library (resolved through the gc importer's export data).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"distcfd/internal/analysis"
)

// Run type-checks the fixture directory dir as package path pkgPath,
// applies a, and reports mismatches against the fixtures' want
// comments as test errors. pkgPath matters: path-gated analyzers
// (ctxflow, wirecompat) decide applicability from it.
// It returns the diagnostics for any extra assertions.
func Run(t *testing.T, a *analysis.Analyzer, pkgPath, dir string) []analysis.Diagnostic {
	t.Helper()

	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(paths)

	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}

	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { got = append(got, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	checkWants(t, fset, files, got)
	return got
}

// wantRx extracts the quoted regexps of a want comment — double- or
// backquoted, the latter sparing the fixture a double-escaping layer.
var wantRx = regexp.MustCompile(`"(?:[^"\\]|\\.)*"` + "|`[^`]*`")

type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, got []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRx.FindAllString(text[len("want "):], -1) {
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", pos, q, err)
					}
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx, raw: raw})
				}
			}
		}
	}

	for _, d := range got {
		pos := fset.Position(d.Pos)
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", shortPos(pos), d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %q", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(pos.Filename), pos.Line, pos.Column)
}
