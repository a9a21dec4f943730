package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FaultCover enforces fault-injection coverage of the cloud I/O surface
// (DESIGN.md §4.9): every cloud.Store method call site in internal/lsm and
// internal/wal must sit in a function reachable from the package API
// (exported functions and methods, init, main). The crash-torture harness
// drives those packages exclusively through their exported surface with
// FaultStore schedules armed underneath; a store call in dead or
// internal-only code is cloud I/O no schedule can ever exercise — exactly
// where an untested partial-failure path hides.
//
// Reachability runs over the shared call graph (DESIGN.md §4.14),
// restricted to the same-package reference closure the analyzer has always
// used: call edges and bare references both count (a callback registration
// is an edge), function-literal bodies belong to their enclosing
// declaration, and dispatch expansion is excluded so coverage is exactly
// what the package's own source names.
var FaultCover = &Analyzer{
	Name: "faultcover",
	Doc:  "cloud.Store call sites must be reachable from the package API so FaultStore schedules can exercise them",
	Run:  runFaultCover,
}

func runFaultCover(pass *ModulePass) {
	for _, pkg := range pass.Pkgs {
		if pathInScope(pkg.Path, "internal/lsm") || pathInScope(pkg.Path, "internal/wal") {
			faultCoverPackage(pass, pkg)
		}
	}
}

func faultCoverPackage(pass *ModulePass, pkg *Package) {
	type callSite struct {
		pos    token.Pos
		method string
	}
	storeCalls := map[*Node][]callSite{}
	var declared []*Node

	for _, n := range pass.Graph().Nodes() {
		if n.Pkg != pkg {
			continue
		}
		declared = append(declared, n)
		if n.Decl.Body == nil {
			continue
		}
		owner := n
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			if call, ok := nd.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isStoreMethod(pkg.Info, sel) {
					storeCalls[owner] = append(storeCalls[owner], callSite{pos: call.Pos(), method: sel.Sel.Name})
				}
			}
			return true
		})
	}

	reachable := map[*Node]bool{}
	var queue []*Node
	for _, n := range declared {
		name := n.Fn.Name()
		if ast.IsExported(name) || name == "init" || name == "main" {
			reachable[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			// Same-package closure only, and no dispatch expansion: the
			// legacy analyzer counted exactly the functions the package's
			// own source mentions by name.
			if e.Kind == EdgeDynamic || e.Callee.Fn.Pkg() != pkg.Types {
				continue
			}
			if !reachable[e.Callee] {
				reachable[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}

	for _, n := range declared {
		if reachable[n] {
			continue
		}
		for _, site := range storeCalls[n] {
			pass.Reportf(site.pos, "cloud.Store.%s call in %s is unreachable from the package API; no FaultStore schedule can exercise this I/O path", site.method, n.Fn.Name())
		}
	}
}

// isStoreMethod reports whether sel resolves to a method of the cloud.Store
// interface (an interface-dispatched store operation).
func isStoreMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	named := derefNamed(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Store" {
		return false
	}
	if _, ok := named.Underlying().(*types.Interface); !ok {
		return false
	}
	return pathInScope(named.Obj().Pkg().Path(), "internal/cloud")
}
