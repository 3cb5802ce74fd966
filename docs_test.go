package distcfd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingTests keeps DESIGN.md, README.md and the Makefile
// honest about the tree: every Test*/Fuzz*/Benchmark* identifier and
// every *.go file they name must exist somewhere in it (bench/
// included). A name written with a trailing * — `TestFoo*` — is a
// prefix. A test or source file that is renamed, folded into another or
// deleted takes its mentions with it in the same change, or this fails.
func TestDocsNameExistingTests(t *testing.T) {
	funcs, files := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files[d.Name()] = true
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	exists := func(name string, prefix bool) bool {
		if !prefix {
			return funcs[name]
		}
		for fn := range funcs {
			if strings.HasPrefix(fn, name) {
				return true
			}
		}
		return false
	}
	ident := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*\*?`)
	file := regexp.MustCompile(`\b[A-Za-z0-9]\w*\.go\b`)
	for _, doc := range []string{"DESIGN.md", "README.md", "Makefile"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range ident.FindAllString(line, -1) {
				if name := strings.TrimSuffix(m, "*"); !exists(name, name != m) {
					t.Errorf("%s:%d names %s, which no _test.go file declares", doc, i+1, m)
				}
			}
			for _, m := range file.FindAllString(line, -1) {
				if !files[m] {
					t.Errorf("%s:%d names %s, which is not in the tree", doc, i+1, m)
				}
			}
		}
	}
}
