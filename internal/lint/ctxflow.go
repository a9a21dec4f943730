package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context propagation on the query path (DESIGN.md §4.5,
// §4.7): inside internal/{core,lsm,remote}, a function that already
// receives a context.Context must thread it downward — minting a fresh
// context.Background() or context.TODO() there severs cancellation and
// per-query tracing for everything below the call. Convenience wrappers
// that take no context (DB.Query) legitimately start at Background and are
// not flagged.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions receiving a context.Context must not mint context.Background()/TODO() (internal/{core,lsm,remote})",
	Run:  perPackage(runCtxFlow),
}

func runCtxFlow(pass *ModulePass, pkg *Package) {
	if !pkg.InScope("internal/core", "internal/lsm", "internal/remote") {
		return
	}
	pkg.Inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !hasCtxParam(pkg.Info, fd.Type) {
			return true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := calleeFromPkg(pkg.Info, call, "context"); ok && (name == "Background" || name == "TODO") {
				pass.Reportf(call.Pos(), "context.%s() inside %s, which already receives a context.Context; pass the caller's ctx so cancellation and tracing propagate", name, fd.Name.Name)
			}
			return true
		})
		return false
	})
}

// hasCtxParam reports whether the function type declares a parameter of
// type context.Context.
func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		named := derefNamed(info.TypeOf(field.Type))
		if named == nil {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}
