package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AllocHot enforces the zero-allocation discipline of the query hot path
// (DESIGN.md §4.10): the Next/Seek/At bodies of internal/chunkenc iterators
// run once per sample per source, and sstable.TableIterator.Next once per
// table entry, so a single allocation there multiplies into thousands per
// query. The bodies themselves must be allocation-free:
//
//   - no make or new
//   - no append (even a provably-no-grow append is flagged; the proof
//     belongs in a //lint:ignore reason next to it)
//   - no function literals (closures allocate their capture environment)
//
// Allocation that genuinely belongs to the hot path goes into a named
// helper (pool fetches like ChunkIterator.decode), which keeps it visible,
// testable, and out of the per-sample loop.
//
// In internal/sstable it also guards the block codec's pooled DEFLATE
// state: flate.NewWriter builds ~650 KB of tables and flate.NewReader
// ~40 KB, which per 4 KB block was the largest cost of building and of
// reading a table, so a flate constructor may be called only from a
// sync.Pool's New function.
var AllocHot = &Analyzer{
	Name: "allochot",
	Doc:  "Next/Seek/At bodies in internal/chunkenc and internal/sstable must not allocate (make, new, append, closures); internal/sstable builds flate state only in a sync.Pool New",
	Run:  perPackage(runAllocHot),
}

// hotMethods are the per-sample SampleIterator methods.
var hotMethods = map[string]bool{"Next": true, "Seek": true, "At": true}

func runAllocHot(pass *ModulePass, pkg *Package) {
	codec := pkg.InScope("internal/sstable")
	if !codec && !pkg.InScope("internal/chunkenc") {
		return
	}
	if codec {
		checkFlateConstructors(pass, pkg)
	}
	pkg.Inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		if fd.Recv == nil || !hotMethods[fd.Name.Name] || fd.Body == nil {
			return false
		}
		recv := "receiver"
		if named := receiverNamed(pkg.Info, fd); named != nil {
			recv = named.Obj().Name()
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit:
				pass.Reportf(e.Pos(), "function literal in %s.%s allocates its closure per call; hoist it out of the hot path (DESIGN.md §4.10)", recv, fd.Name.Name)
				return false // the literal's own body is not the hot path
			case *ast.CallExpr:
				if name, ok := builtinName(pkg.Info, e); ok {
					switch name {
					case "make", "new":
						pass.Reportf(e.Pos(), "%s allocates inside %s.%s; move it to a pooled helper or reuse scratch (DESIGN.md §4.10)", name, recv, fd.Name.Name)
					case "append":
						pass.Reportf(e.Pos(), "append inside %s.%s may grow its backing array per sample; reuse scratch capacity in a helper, or justify with //lint:ignore (DESIGN.md §4.10)", recv, fd.Name.Name)
					}
				}
			}
			return true
		})
		return false
	})
}

// checkFlateConstructors reports every compress/flate constructor call
// that is not inside the New function of a sync.Pool literal.
func checkFlateConstructors(pass *ModulePass, pkg *Package) {
	pkg.Inspect(func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CompositeLit:
			if !isSyncPool(derefNamed(pkg.Info.TypeOf(e))) {
				return true
			}
			for _, elt := range e.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "New" {
					if _, ok := kv.Value.(*ast.FuncLit); ok {
						return false // the pool's constructor: the one place flate state is built
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := calleeFromPkg(pkg.Info, e, "compress/flate"); ok && (strings.HasPrefix(name, "NewReader") || strings.HasPrefix(name, "NewWriter")) {
				pass.Reportf(e.Pos(), "flate.%s builds compressor state per call; take it from a sync.Pool and Reset it (DESIGN.md §4.10)", name)
			}
		}
		return true
	})
}

// receiverNamed resolves a method declaration's receiver named type.
func receiverNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	return derefNamed(sig.Recv().Type())
}

// builtinName reports whether call invokes a builtin, and which.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}
