// Command distcfdvet is the repo's analyzer suite as a `go vet`
// vettool, speaking the unitchecker protocol on the standard library
// alone (the build container has no module proxy, so the x/tools
// multichecker cannot be vendored). Run it through the go command,
// which supplies per-package config files with export data for every
// import:
//
//	go build -o bin/distcfdvet ./cmd/distcfdvet
//	go vet -vettool=$(pwd)/bin/distcfdvet ./...
//
// or just `make lint`. The suite: keyjoin (collision-prone separator
// keys), ctxflow (fresh context roots inside internal/), mmapclose
// (colstore.Open handles Closed on all paths), wirecompat (wire
// structs pinned to internal/remote/wire.golden).
//
// A standalone mode regenerates the wirecompat golden after a
// deliberate, version-bumped wire change (`make wire-golden`):
//
//	distcfdvet -write-wire-golden internal/remote
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"distcfd/internal/analysis"
	"distcfd/internal/analysis/ctxflow"
	"distcfd/internal/analysis/keyjoin"
	"distcfd/internal/analysis/mmapclose"
	"distcfd/internal/analysis/wirecompat"
)

var analyzers = []*analysis.Analyzer{
	keyjoin.Analyzer,
	ctxflow.Analyzer,
	mmapclose.Analyzer,
	wirecompat.Analyzer,
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		// The go command fingerprints the tool for its build cache:
		// `-V=full` must print "<name> version <...> buildID=<hex>",
		// and the ID must change when the tool's binary does — hash
		// ourselves, exactly as x/tools' unitchecker does.
		printVersion()
	case len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags"):
		// The go command asks which vet flags the tool supports; this
		// suite has no per-analyzer flags.
		fmt.Println("[]")
	case len(args) >= 1 && (args[0] == "-write-wire-golden" || args[0] == "--write-wire-golden"):
		if len(args) != 2 {
			fatalf("usage: distcfdvet -write-wire-golden <pkgdir>")
		}
		if err := writeWireGolden(args[1]); err != nil {
			fatalf("write-wire-golden: %v", err)
		}
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(checkUnit(args[0]))
	default:
		fatalf("usage: distcfdvet <unit>.cfg  (invoked by `go vet -vettool=distcfdvet`)\n" +
			"       distcfdvet -write-wire-golden <pkgdir>")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "distcfdvet: "+format+"\n", args...)
	os.Exit(1)
}

func printVersion() {
	progname := filepath.Base(os.Args[0])
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

// config is the unit-check protocol's JSON config, written by the go
// command next to each package's build artifacts (one file per
// package, passed as the sole argument).
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

var goVersionRx = regexp.MustCompile(`^go([1-9][0-9]*)\.(0|[1-9][0-9]*)`)

// checkUnit analyzes one package unit; the return value is the process
// exit code (0 clean, 1 operational error, 2 diagnostics found).
func checkUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "distcfdvet: %v\n", err)
		return 1
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "distcfdvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// This suite exports no facts, but the protocol still requires the
	// facts file: the go command caches it and feeds it to dependents
	// via PackageVetx. Write it empty, always — including for VetxOnly
	// units (dependencies analyzed only for their facts).
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "distcfdvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "distcfdvet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	// Resolve imports through the export data the go command listed:
	// vendored/updated paths go through ImportMap first, then
	// PackageFile names the compiled export file.
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tconf := types.Config{
		Importer: importer.ForCompiler(fset, compiler, lookup),
		Sizes:    types.SizesFor(compiler, build.Default.GOARCH),
	}
	if goVersionRx.MatchString(cfg.GoVersion) {
		tconf.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "distcfdvet: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "distcfdvet: %s: %v\n", a.Name, err)
			return 1
		}
	}
	if len(diags) == 0 {
		return 0
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return 2
}

// writeWireGolden regenerates <pkgdir>/wire.golden from the package's
// non-test sources — parser-only, no type-check, so it works even
// while the build is red.
func writeWireGolden(pkgdir string) error {
	paths, err := filepath.Glob(filepath.Join(pkgdir, "*.go"))
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return fmt.Errorf("no Go sources in %s", pkgdir)
	}
	snap := wirecompat.Snapshot(fset, files)
	if snap.Fingerprint == "" {
		return fmt.Errorf("%s declares no wire structs", pkgdir)
	}
	out := filepath.Join(pkgdir, wirecompat.GoldenFile)
	if err := os.WriteFile(out, []byte(wirecompat.FormatGolden(snap)), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (version %s, fingerprint %s)\n", out, snap.Version, snap.Fingerprint)
	return nil
}
