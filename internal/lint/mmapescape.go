package lint

import (
	"go/ast"
	"go/types"
)

// MmapEscape guards the lifetime contract of memory-mapped bytes
// (DESIGN.md §4.10): a slice derived from xmmap.Region.Data() aliases the
// mapping and dies with it — touching it after the region closes is a
// use-after-unmap the runtime cannot catch. Two rules keep every such
// slice's lifetime auditable:
//
//  1. Region.Data(), syscall.Mmap and syscall.Munmap may only be called
//     inside internal/xmmap. Other packages use the typed accessors
//     (SlotArray, FlatArray, AppendRegion, ...), whose returned views
//     carry documented lifetimes, and never hold a mapping of their own.
//  2. Inside internal/xmmap, a Data()-derived slice (directly or through
//     local variables) must not be stored into a struct field, a
//     package-level variable, or a composite literal. Long-lived state
//     holds the *Region and re-derives the view per access, so Close
//     leaves no dangling aliases behind.
//
// Returning a derived view from an xmmap function is allowed: that is the
// accessor pattern itself, and the accessor's doc comment owns the
// lifetime statement.
var MmapEscape = &Analyzer{
	Name: "mmapescape",
	Doc:  "xmmap region bytes must not escape their region's lifetime",
	Run:  perPackage(runMmapEscape),
}

func runMmapEscape(pass *ModulePass, pkg *Package) {
	inXmmap := pkg.InScope("internal/xmmap")
	pkg.Inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		if fd.Body == nil {
			return false
		}
		if !inXmmap {
			// Rule 1: no raw Data() calls or mappings outside the owning
			// package.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isRegionData(pkg.Info, call) {
					pass.Reportf(call.Pos(), "Region.Data() outside internal/xmmap exposes raw mmap bytes with no lifetime contract; use a typed xmmap accessor instead")
				} else if name, ok := calleeFromPkg(pkg.Info, call, "syscall"); ok && (name == "Mmap" || name == "Munmap") {
					pass.Reportf(call.Pos(), "syscall.%s outside internal/xmmap holds a mapping with no lifetime contract; use an xmmap type instead", name)
				}
				return true
			})
			return false
		}
		checkXmmapFunc(pass, pkg.Info, fd)
		return false
	})
}

// checkXmmapFunc applies rule 2 inside one xmmap function: track locals
// tainted by Data() and flag stores that outlive the call.
func checkXmmapFunc(pass *ModulePass, info *types.Info, fd *ast.FuncDecl) {
	tainted := map[types.Object]bool{}
	isTainted := func(e ast.Expr) bool { return taintRoot(info, e, tainted) }

	// Taint propagation: run twice so a use-before-later-def chain within
	// loops still converges (assignments are the only propagators).
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !isTainted(rhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						tainted[obj] = true
					} else if obj := info.Uses[id]; obj != nil && !isPackageLevel(obj) {
						tainted[obj] = true
					}
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			if len(e.Lhs) != len(e.Rhs) {
				return true
			}
			for i, rhs := range e.Rhs {
				if !isTainted(rhs) {
					continue
				}
				switch lhs := e.Lhs[i].(type) {
				case *ast.SelectorExpr:
					pass.Reportf(e.Pos(), "mmap-backed slice stored in a field outlives its region; store the *Region and re-derive the view per access")
				case *ast.IndexExpr:
					pass.Reportf(e.Pos(), "mmap-backed slice stored in a container outlives its region; store the *Region and re-derive the view per access")
				case *ast.Ident:
					if obj := info.Uses[lhs]; obj != nil && isPackageLevel(obj) {
						pass.Reportf(e.Pos(), "mmap-backed slice stored in package-level %s outlives its region", lhs.Name)
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isTainted(v) {
					pass.Reportf(v.Pos(), "mmap-backed slice captured in a composite literal may outlive its region; store the *Region and re-derive the view per access")
				}
			}
		}
		return true
	})
}

// taintRoot reports whether e is (or aliases) a Data()-derived slice:
// a Data() call, a slice of one, or a tainted local — including an append
// whose destination is tainted. append onto a fresh destination copies and
// launders the taint.
func taintRoot(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return taintRoot(info, v.X, tainted)
	case *ast.SliceExpr:
		return taintRoot(info, v.X, tainted)
	case *ast.Ident:
		obj := info.Uses[v]
		return obj != nil && tainted[obj]
	case *ast.CallExpr:
		if isRegionData(info, v) {
			return true
		}
		if id, ok := v.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(v.Args) > 0 {
				return taintRoot(info, v.Args[0], tainted)
			}
		}
	}
	return false
}

// isRegionData reports whether call is xmmap's Region.Data method.
func isRegionData(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Data" {
		return false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	named := derefNamed(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Region" {
		return false
	}
	return pathInScope(fn.Pkg().Path(), "internal/xmmap")
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
