package lint

import (
	"go/ast"
	"slices"
	"strings"
)

// AtomicAlign keeps 64-bit atomics typed (DESIGN.md §4.7 hot-path budget):
// any call of a sync/atomic function on a plain int64 or uint64
// (AddInt64, LoadUint64, ...) is a finding that names the typed atomic to
// use instead. atomic.Int64 and atomic.Uint64 are 8-byte aligned even
// under 32-bit layout and cannot be read without the atomic API, so
// neither hazard of the plain-word functions can arise: a word that
// faults on 386 and arm because it sits at a 4-byte offset, or a plain
// access mixed in that tears.
var AtomicAlign = &Analyzer{
	Name: "atomicalign",
	Doc:  "64-bit sync/atomic functions on plain words are forbidden; use atomic.Int64 or atomic.Uint64",
	Run:  perPackage(runAtomicAlign),
}

func runAtomicAlign(pass *ModulePass, pkg *Package) {
	for _, f := range pkg.Files {
		if !slices.ContainsFunc(f.Imports, func(s *ast.ImportSpec) bool { return s.Path.Value == `"sync/atomic"` }) {
			continue // no qualifier can name a sync/atomic function here
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := calleeFromPkg(pkg.Info, call, "sync/atomic")
			if !ok {
				return true
			}
			for _, op := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
				if typ, ok := strings.CutPrefix(name, op); ok && (typ == "Int64" || typ == "Uint64") {
					pass.Reportf(call.Pos(), "atomic.%s on a plain %s; use atomic.%s, which is 8-byte aligned on 32-bit platforms and cannot be read plainly", name, strings.ToLower(typ), typ)
				}
			}
			return true
		})
	}
}
