// Package mmapclose checks colstore handle discipline: a function that
// opens a packed fragment or delta log (colstore.Open, OpenDir,
// OpenDeltaLog) holds a file mapping and an open descriptor, and must
// either Close it on every path or hand the handle off to an owner
// whose Close is checked where it lives. A leaked mapping survives
// garbage collection — the address space and the descriptor are gone
// until process exit, which is exactly the resource a
// bigger-than-RAM site cannot afford to bleed.
//
// The check is a per-function approximation (one syntactic pass), not
// a CFG analysis. A function that opens passes when it defers a Close
// on the handle, or when the handle escapes — returned to the caller,
// stored into a struct, or passed to another call — because each of
// those moves the obligation somewhere this analyzer will look next
// (or to an owner type whose own Close releases it). It is flagged
// when no Close appears at all, and when the only Close is straight-
// line (an early return or panic between Open and Close leaks the
// mapping — use defer). Deliberate exceptions carry
// //distcfd:mmapclose-ok with a reason.
package mmapclose

import (
	"go/ast"
	"go/types"
	"strings"

	"distcfd/internal/analysis"
)

// Analyzer is the mmapclose analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mmapclose",
	Doc:  "every colstore.Open needs a Close on all return paths (defer it, or hand the handle off)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var opens []*ast.CallExpr
	openVars := map[types.Object]bool{}
	escaped := false
	anyClose := false
	deferredClose := false

	// First sweep: find the opens and the variables they bind, so the
	// second sweep can recognize uses of those handles anywhere in the
	// body (including uses that precede a re-open in source order).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isOpen(pass, n) {
				opens = append(opens, n)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isOpen(pass, call) && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							openVars[obj] = true
						} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
							openVars[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	if len(opens) == 0 {
		return
	}

	isHandle := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && openVars[pass.TypesInfo.Uses[id]]
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isCloseOf(pass, n.Call, isHandle) {
				anyClose, deferredClose = true, true
			}
			return true
		case *ast.CallExpr:
			if isCloseOf(pass, n, isHandle) {
				anyClose = true
				return true
			}
			// The handle passed to some other call: ownership handed off
			// (a wrapper that will close it, a cleanup registrar, ...).
			for _, arg := range n.Args {
				if isHandle(arg) {
					escaped = true
				}
			}
			return true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				e := ast.Unparen(res)
				if isHandle(e) {
					escaped = true
				}
				if call, ok := e.(*ast.CallExpr); ok && isOpen(pass, call) {
					escaped = true // return colstore.Open(...) hands straight off
				}
			}
			return true
		case *ast.AssignStmt:
			// Stored into a struct field or other non-local place: the
			// owner's lifecycle carries the obligation now.
			for i, rhs := range n.Rhs {
				if isHandle(rhs) && i < len(n.Lhs) {
					if _, ok := n.Lhs[i].(*ast.Ident); !ok {
						escaped = true
					}
				}
			}
			return true
		case *ast.KeyValueExpr:
			if isHandle(n.Value) {
				escaped = true // composite literal field, e.g. &storeFrag{frag: f}
			}
			return true
		}
		return true
	})

	if escaped {
		return
	}
	switch {
	case !anyClose:
		pass.Reportf(opens[0].Pos(),
			"%s opens a colstore handle but never Closes it; the mapping and descriptor leak until process exit — add `defer f.Close()` (or annotate //distcfd:mmapclose-ok)", fd.Name.Name)
	case !deferredClose:
		pass.Reportf(opens[0].Pos(),
			"%s Closes a colstore handle without defer; an early return or panic between Open and Close leaks the mapping — use `defer f.Close()` (or annotate //distcfd:mmapclose-ok)", fd.Name.Name)
	}
}

// isOpen matches the colstore opening constructors: a package-level
// Open* function of the colstore package returning a pointer handle.
func isOpen(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := pass.FuncFor(call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/colstore") {
		return false
	}
	if !strings.HasPrefix(fn.Name(), "Open") {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil || sig.Results().Len() == 0 {
		return false
	}
	_, isPtr := sig.Results().At(0).Type().(*types.Pointer)
	return isPtr
}

// isCloseOf matches h.Close() where h is one of the opened handles.
func isCloseOf(pass *analysis.Pass, call *ast.CallExpr, isHandle func(ast.Expr) bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Close" && isHandle(sel.X)
}
