// Package keyjoin flags separator-joined string keys — a bug class
// this repo has shipped in two shapes: fingerprint collisions from
// "\x1f"-joined spec fields, and phantom groups from "\x1f"-joined
// group keys. Joining values with a separator is injective only while
// no value contains the separator; a length-prefixed encoding
// (uvarint(len) + bytes — relation.AppendKey, which every key builds on)
// is injective unconditionally.
//
// Four patterns are flagged:
//
//   - R1: strings.Join(_, sep) where sep is a constant containing a
//     control byte (< 0x20) — the repo's separator-key idiom.
//   - R2: a map index built from strings.Join, fmt.Sprintf, or
//     string +-concatenation of non-constant operands — directly, or
//     via a local variable whose only assignment is such a call.
//   - R3: returning such an expression from a function whose name ends
//     in Key, FP, Fingerprint, or Task.
//   - R4: strings.Builder / bytes.Buffer WriteByte of a control byte,
//     or WriteString of a constant containing one — the hand-rolled
//     form of R1.
//
// Sort comparators may join with a separator: ordering does not need
// injectivity. Annotate those sites //distcfd:keyjoin-ok with a note.
package keyjoin

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"distcfd/internal/analysis"
)

// Analyzer is the keyjoin analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "keyjoin",
	Doc:  "flag separator-joined string keys (collision-prone); use length-prefixed encoding",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	// keyAssigns maps a local string variable to the joining call
	// assigned to it, when that is its only assignment — so
	//
	//	k := strings.Join(parts, "\x1f")
	//	seen[k] = true
	//
	// is caught like the inlined form. Variables assigned more than
	// once are dropped (we cannot tell which value reaches the use).
	assignCount := map[types.Object]int{}
	joinSrc := map[types.Object]ast.Expr{}
	pass.Preorder(func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			assignCount[obj]++
			if joinDesc(pass, as.Rhs[i]) != "" {
				joinSrc[obj] = as.Rhs[i]
			}
		}
	})
	keyAssigns := map[types.Object]ast.Expr{}
	for obj, e := range joinSrc {
		if assignCount[obj] == 1 {
			keyAssigns[obj] = e
		}
	}

	pass.Preorder(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkR1(pass, n)
			checkR4(pass, n)
		case *ast.IndexExpr:
			checkR2(pass, n, keyAssigns)
		case *ast.FuncDecl:
			checkR3(pass, n)
		}
	})
	return nil, nil
}

// checkR1 flags strings.Join with a control-byte separator.
func checkR1(pass *analysis.Pass, call *ast.CallExpr) {
	if !pass.IsPkgFunc(call, "strings", "Join") || len(call.Args) != 2 {
		return
	}
	if sep, ok := constStringVal(pass, call.Args[1]); ok && hasControlByte(sep) {
		pass.Reportf(call.Pos(),
			"strings.Join with control-byte separator %q builds a collision-prone key; use a length-prefixed encoding (or annotate //distcfd:keyjoin-ok if comparator-only)", sep)
	}
}

// checkR2 flags map indexing keyed by a joining expression.
func checkR2(pass *analysis.Pass, idx *ast.IndexExpr, keyAssigns map[types.Object]ast.Expr) {
	t := pass.TypesInfo.TypeOf(idx.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	key := ast.Unparen(idx.Index)
	if desc := joinDesc(pass, key); desc != "" {
		pass.Reportf(idx.Index.Pos(),
			"map key built by %s is collision-prone; use a length-prefixed encoding", desc)
		return
	}
	if id, ok := key.(*ast.Ident); ok {
		obj := pass.TypesInfo.Uses[id]
		if src, ok := keyAssigns[obj]; ok {
			pass.Reportf(idx.Index.Pos(),
				"map key %s built by %s is collision-prone; use a length-prefixed encoding", id.Name, joinDesc(pass, src))
		}
	}
}

// checkR3 flags key-builder functions that return a joining expression.
func checkR3(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := strings.ToLower(fd.Name.Name)
	if !strings.HasSuffix(name, "key") && !strings.HasSuffix(name, "fp") &&
		!strings.HasSuffix(name, "fingerprint") && !strings.HasSuffix(name, "task") {
		return
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false // a closure's returns are not fd's
		case *ast.ReturnStmt:
			for _, res := range n.(*ast.ReturnStmt).Results {
				if desc := joinDesc(pass, res); desc != "" {
					pass.Reportf(res.Pos(),
						"%s returns a key built by %s; use a length-prefixed encoding", fd.Name.Name, desc)
				}
			}
		}
		return true
	})
}

// checkR4 flags Builder/Buffer writes of control-byte separators.
func checkR4(pass *analysis.Pass, call *ast.CallExpr) {
	wb := pass.IsMethodOf(call, "strings", "Builder", "WriteByte") ||
		pass.IsMethodOf(call, "bytes", "Buffer", "WriteByte")
	ws := pass.IsMethodOf(call, "strings", "Builder", "WriteString") ||
		pass.IsMethodOf(call, "bytes", "Buffer", "WriteString")
	if (!wb && !ws) || len(call.Args) != 1 {
		return
	}
	if wb {
		if v, ok := constIntVal(pass, call.Args[0]); ok && v >= 0 && v < 0x20 &&
			v != '\t' && v != '\n' && v != '\r' {
			pass.Reportf(call.Pos(),
				"WriteByte(%#x) writes a control-byte separator into a key; use a length-prefixed encoding", v)
		}
		return
	}
	if s, ok := constStringVal(pass, call.Args[0]); ok && hasControlByte(s) {
		pass.Reportf(call.Pos(),
			"WriteString(%q) writes a control-byte separator into a key; use a length-prefixed encoding", s)
	}
}

// joinDesc classifies expr as a key-joining expression, returning a
// short description ("" if it is not one).
func joinDesc(pass *analysis.Pass, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		if pass.IsPkgFunc(e, "strings", "Join") {
			// Any separator: as a MAP KEY even "," collides
			// ({"a,b"} vs {"a","b"}). R1 separately narrows to
			// control bytes for bare Join calls.
			return "strings.Join"
		}
		if pass.IsPkgFunc(e, "fmt", "Sprintf") {
			return "fmt.Sprintf"
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD && isStringConcat(pass, e) {
			return "string concatenation"
		}
	}
	return ""
}

// isStringConcat reports whether e is a +-chain of string operands
// with at least two non-constant parts (constant + variable — a plain
// prefix like "viopi_"+name — is injective and fine).
func isStringConcat(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.String && basic.Kind() != types.UntypedString {
		return false
	}
	return countNonConstOperands(pass, e) >= 2
}

func countNonConstOperands(pass *analysis.Pass, expr ast.Expr) int {
	e := ast.Unparen(expr)
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.ADD {
		return countNonConstOperands(pass, be.X) + countNonConstOperands(pass, be.Y)
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return 0
	}
	return 1
}

func constStringVal(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(expr)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func constIntVal(pass *analysis.Pass, expr ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(expr)]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return v, ok
}

// hasControlByte reports whether s contains a separator-style control
// byte. Tab, newline, and carriage return are excluded: builders
// emitting those are formatting text for humans (String() dumps,
// golden files), not building keys — and a "\n"-joined key used as a
// map index is still caught by the map-key rule.
func hasControlByte(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 && b != '\t' && b != '\n' && b != '\r' {
			return true
		}
	}
	return false
}
