package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
)

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AllocHot,
		AtomicAlign,
		CtxFlow,
		ErrWrap,
		FaultCover,
		JournalCover,
		LockGraph,
		MetricName,
		MmapEscape,
		PoolOwn,
		SeekContract,
	}
}

// ByName resolves analyzer names; unknown names return nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// --- shared type-level helpers ---

// pkgNameOf resolves expr to the package it names, if it is a package
// qualifier (the "atomic" in atomic.AddInt64).
func pkgNameOf(info *types.Info, expr ast.Expr) *types.PkgName {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// calleeFromPkg returns the function name when call is pkgpath.Name(...),
// e.g. calleeFromPkg(info, call, "sync/atomic") == "AddInt64".
func calleeFromPkg(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pn := pkgNameOf(info, sel.X)
	if pn == nil || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// derefNamed unwraps pointers and aliases down to the named type, if any.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isSyncPool reports whether named is sync.Pool.
func isSyncPool(named *types.Named) bool {
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// isErrorType reports whether t implements error (and is not the untyped
// nil, which matches every interface vacuously).
func isErrorType(t types.Type) bool {
	if t == nil || types.Unalias(t) == types.Typ[types.UntypedNil] {
		return false
	}
	return types.Implements(t, errorType)
}

// signatureOf returns the static signature of a call's callee, following
// the type checker's view (methods, function values, conversions → nil).
func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.TypeOf(call.Fun)
	sig, _ := types.Unalias(t).(*types.Signature)
	return sig
}

// unquoteConst extracts the string value of a constant.
func unquoteConst(v constant.Value) (string, error) {
	if v.Kind() != constant.String {
		return "", fmt.Errorf("not a string constant")
	}
	return constant.StringVal(v), nil
}

// formatVerbs returns the verb letters of a fmt format string in argument
// order ('*' width/precision markers appear as '*' since they consume an
// argument). clean is false when the format uses explicit argument indexes
// ([n]), which sequential mapping cannot follow.
func formatVerbs(format string) (verbs []rune, clean bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
	verb:
		for ; i < len(format); i++ {
			switch c := format[i]; {
			case c == '%':
				break verb // literal %%
			case c == '[':
				return nil, false // explicit argument index
			case c == '*':
				verbs = append(verbs, '*')
			case c == '#' || c == '+' || c == '-' || c == ' ' || c == '0' || c == '.' || (c >= '1' && c <= '9'):
				// flags, width, precision: keep scanning
			default:
				verbs = append(verbs, rune(c))
				break verb
			}
		}
	}
	return verbs, true
}

// sigIs reports whether sig has exactly the given parameter and result
// types (no variadics).
func sigIs(sig *types.Signature, params, results []types.Type) bool {
	if sig.Variadic() || sig.Params().Len() != len(params) || sig.Results().Len() != len(results) {
		return false
	}
	for i, p := range params {
		if !types.Identical(sig.Params().At(i).Type(), p) {
			return false
		}
	}
	for i, r := range results {
		if !types.Identical(sig.Results().At(i).Type(), r) {
			return false
		}
	}
	return true
}
