// Package wirecompat pins the gob schema of internal/remote's wire
// structs to a checked-in golden file. Gob silently drops fields the
// peer does not know, so editing a wire struct without bumping
// WireVersion does not error at runtime — it silently decodes partial
// payloads (the exact failure mode the WireVersion doc comment
// describes). This analyzer makes that a build failure instead.
//
// The fingerprint is syntactic — a sha256 over the canonicalized
// declarations of every exported struct named Wire* or *Args/*Reply,
// plus the rpc service name — computed from the AST alone, so the
// driver can regenerate the golden (`make wire-golden`) without a full
// type-check. Field names, order, and type expressions all feed the
// hash; gob identifies fields by name and encodes concrete types, so
// any of those changing changes what travels.
//
// One caveat the fingerprint cannot see: every wire form ships raw
// []byte in the colstore codec — the packed payload (WirePackedRelation)
// its chunk payloads and dictionary sections, the row form
// (WireRelation.Tuples, WireDelta.Inserts) and the dict+ID form
// (WireRelation.Dicts) their values sections — so a layout change to
// that codec (EncodeChunk, or the values section AppendValues writes
// and DecodeDict and DecodeDictSection read, which moves the row and
// dict forms too) changes
// what travels without touching any Wire* struct and must bump
// WireVersion AND colstore.FormatVersion by hand — the codec's doc
// comment restates this from its side.
package wirecompat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"distcfd/internal/analysis"
)

// GoldenFile is the golden's basename, expected next to the wire
// structs' sources.
const GoldenFile = "wire.golden"

// Analyzer is the wirecompat analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "wirecompat",
	Doc:  "wire-struct schema must match wire.golden; bump WireVersion and regenerate on change",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !strings.HasSuffix(pass.Pkg.Path(), "internal/remote") {
		return nil, nil
	}
	files := pass.NonTestFiles()
	if len(files) == 0 {
		return nil, nil
	}
	snap := Snapshot(pass.Fset, files)
	if snap.Fingerprint == "" {
		return nil, nil // no wire structs; nothing to pin
	}
	dir := filepath.Dir(pass.Fset.Position(files[0].FileStart).Filename)
	golden, err := ReadGolden(filepath.Join(dir, GoldenFile))
	pos := snap.pos
	if !pos.IsValid() {
		pos = files[0].Package
	}
	if err != nil {
		pass.Reportf(pos, "wire golden unreadable (%v); run `make wire-golden` and commit %s", err, GoldenFile)
		return nil, nil
	}
	switch {
	case snap.Fingerprint == golden.Fingerprint && snap.Version == golden.Version:
		// In sync.
	case snap.Version == golden.Version:
		pass.Reportf(pos,
			"wire structs changed (fingerprint %s, golden %s) without bumping WireVersion (still %s); gob would silently drop the skewed fields — bump WireVersion, document the change, and run `make wire-golden`",
			short(snap.Fingerprint), short(golden.Fingerprint), snap.Version)
	default:
		pass.Reportf(pos,
			"wire golden is stale (version %s vs golden %s); run `make wire-golden` and commit %s",
			snap.Version, golden.Version, GoldenFile)
	}
	return nil, nil
}

// Snap is one computed wire-schema snapshot.
type Snap struct {
	Version     string // WireVersion const literal, "" if absent
	Service     string // serviceName const literal
	Fingerprint string // sha256 hex of the canonical declarations
	pos         token.Pos
}

// Snapshot fingerprints the wire structs in files. Purely syntactic:
// usable on parser.ParseFile output with no type information.
func Snapshot(fset *token.FileSet, files []*ast.File) Snap {
	var snap Snap
	var decls []string
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if ok && isWireName(spec.Name.Name) {
						decls = append(decls, canonStruct(spec.Name.Name, st))
					}
				case *ast.ValueSpec:
					for i, name := range spec.Names {
						if i >= len(spec.Values) {
							continue
						}
						lit := types.ExprString(spec.Values[i])
						switch name.Name {
						case "WireVersion":
							snap.Version = lit
							snap.pos = name.Pos()
						case "serviceName", "ServiceName":
							snap.Service = strings.Trim(lit, `"`)
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		return snap
	}
	sort.Strings(decls)
	h := sha256.New()
	fmt.Fprintf(h, "service %s\n", snap.Service)
	for _, d := range decls {
		fmt.Fprintln(h, d)
	}
	snap.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return snap
}

// isWireName reports whether an exported type participates in the wire
// schema: the Wire* payload forms and the rpc *Args/*Reply envelopes.
func isWireName(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return strings.HasPrefix(name, "Wire") ||
		strings.HasSuffix(name, "Args") || strings.HasSuffix(name, "Reply")
}

// canonStruct renders one struct declaration canonically:
// field order preserved (gob does not care, but a reorder is still a
// deliberate edit worth a version thought), types via ExprString.
func canonStruct(name string, st *ast.StructType) string {
	var b strings.Builder
	fmt.Fprintf(&b, "type %s struct {", name)
	for _, field := range st.Fields.List {
		t := types.ExprString(field.Type)
		if len(field.Names) == 0 {
			fmt.Fprintf(&b, " %s;", t) // embedded
			continue
		}
		for _, fn := range field.Names {
			fmt.Fprintf(&b, " %s %s;", fn.Name, t)
		}
	}
	b.WriteString(" }")
	return b.String()
}

// Golden is the parsed golden file.
type Golden struct {
	Version     string
	Service     string
	Fingerprint string
}

// ReadGolden parses a golden file: '#' comments, then
// "version"/"service"/"fingerprint" key-value lines.
func ReadGolden(path string) (Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Golden{}, err
	}
	var g Golden
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return Golden{}, fmt.Errorf("malformed golden line %q", line)
		}
		val = strings.TrimSpace(val)
		switch key {
		case "version":
			g.Version = val
		case "service":
			g.Service = val
		case "fingerprint":
			g.Fingerprint = val
		default:
			return Golden{}, fmt.Errorf("unknown golden key %q", key)
		}
	}
	if g.Fingerprint == "" {
		return Golden{}, fmt.Errorf("golden %s has no fingerprint", path)
	}
	return g, nil
}

// FormatGolden renders a snapshot in golden-file form.
func FormatGolden(s Snap) string {
	var b strings.Builder
	b.WriteString("# distcfd wire-protocol golden. Pins the gob schema of internal/remote's\n")
	b.WriteString("# Wire*/Args/Reply structs; `go vet -vettool` (wirecompat) fails the build\n")
	b.WriteString("# when the structs drift from this file. After a deliberate wire change:\n")
	b.WriteString("# bump WireVersion in wire.go, document it, then run `make wire-golden`.\n")
	fmt.Fprintf(&b, "version %s\n", s.Version)
	fmt.Fprintf(&b, "service %s\n", s.Service)
	fmt.Fprintf(&b, "fingerprint %s\n", s.Fingerprint)
	return b.String()
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
