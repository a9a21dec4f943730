package lint

import (
	"go/ast"
	"go/types"
)

// ErrWrap enforces the durability-path error discipline (DESIGN.md §4.6)
// in internal/{wal,lsm,cloud,sstable}:
//
//   - Errors crossing a package boundary must stay classifiable:
//     fmt.Errorf must wrap error operands with %w (or the caller must use
//     a typed error), never flatten them through %v/%s — flattening breaks
//     errors.As, errors.Is, and cloud.IsTransient retry classification.
//   - Sync/Close on the write path return the error that tells us whether
//     bytes reached the device; silently discarding it (bare call
//     statement or bare defer) voids the fsync discipline. Assigning to _
//     is the explicit, auditable way to drop one deliberately.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "durability packages must wrap errors with %w and must not silently discard Sync/Close errors",
	Run:  perPackage(runErrWrap),
}

func runErrWrap(pass *ModulePass, pkg *Package) {
	if !pkg.InScope("internal/wal", "internal/lsm", "internal/cloud", "internal/sstable") {
		return
	}
	pkg.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkErrorfVerbs(pass, pkg.Info, n)
		case *ast.ExprStmt:
			checkDiscardedCall(pass, pkg.Info, n.X, "")
		case *ast.DeferStmt:
			checkDiscardedCall(pass, pkg.Info, n.Call, "defer ")
		case *ast.GoStmt:
			checkDiscardedCall(pass, pkg.Info, n.Call, "go ")
		}
		return true
	})
}

// checkErrorfVerbs flags fmt.Errorf calls that format an error operand
// with a verb other than %w.
func checkErrorfVerbs(pass *ModulePass, info *types.Info, call *ast.CallExpr) {
	if name, ok := calleeFromPkg(info, call, "fmt"); !ok || name != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return // dynamic format string; nothing to check
	}
	format, err := unquoteConst(tv.Value)
	if err != nil {
		return
	}
	verbs, clean := formatVerbs(format)
	if !clean {
		return
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) || verb == 'w' {
			continue
		}
		arg := call.Args[argIdx]
		if isErrorType(info.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "error operand formatted with %%%c; use %%w so errors.As/Is and transient-fault classification survive the package boundary", verb)
		}
	}
}

// checkDiscardedCall flags bare x.Sync()/x.Close() statements whose error
// result is implicitly dropped.
func checkDiscardedCall(pass *ModulePass, info *types.Info, expr ast.Expr, prefix string) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "Sync" && name != "Close" {
		return
	}
	sig := signatureOf(info, call)
	if sig == nil || sig.Results().Len() != 1 || !isErrorType(sig.Results().At(0).Type()) {
		return
	}
	pass.Reportf(call.Pos(), "%s%s() error discarded in a durability path; check it, return it, or assign to _ explicitly", prefix, name)
}
