package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// JournalCover enforces the operational-journal discipline for background
// operations (DESIGN.md §4.11, §4.14): every background op in internal/lsm
// and internal/wal emits exactly one obs.Journal event, and emits it
// through the named-return-defer idiom so every exit path — success and
// error alike — records the op's real outcome.
//
// Three rule families:
//
//  1. Idiom: an obs.Journal.Emit call in scope must sit inside a function
//     literal that is the immediate call of a defer statement
//     (defer func() { j.Emit(...) }()). An inline emit misses early
//     returns; a direct `defer j.Emit(...)` evaluates its arguments at
//     defer time and journals pre-operation state. If the enclosing
//     function has an error result, that result must be named and must
//     appear in the Emit arguments — otherwise the event can never record
//     the failure it exists to explain.
//
//  2. Coverage: walking the call graph from every goroutine spawn site
//     (Concurrent call edges), each reached function either emits a
//     journal event itself (the walk stops there: its callees run inside
//     that journaled op) or must not mutate durable state. A cloud.Store
//     Put/Delete or an os.Remove/Rename/Truncate reached on a background
//     path with no journaling function above it is an invisible mutation
//     the operator can never correlate with an event.
//
//  3. Uniqueness: two Emit calls in one function is double-journaling —
//     an op has one boundary, so merge into a single deferred emit.
var JournalCover = &Analyzer{
	Name: "journalcover",
	Doc:  "background ops in lsm/wal emit exactly one obs.Journal event via a named-return deferred closure",
	Run:  runJournalCover,
}

// emitSite classifies one lexical obs.Journal.Emit call.
type emitSite struct {
	call     *ast.CallExpr
	deferred bool // inside a FuncLit that is the call of a defer statement
	direct   bool // the defer statement's call IS the Emit (defer j.Emit(...))
}

func runJournalCover(pass *ModulePass) {
	inScope := func(n *Node) bool {
		return n.Pkg != nil &&
			(pathInScope(n.Pkg.Path, "internal/lsm") || pathInScope(n.Pkg.Path, "internal/wal"))
	}

	// Pass 1: classify every Emit site, module-wide. A function with any
	// emit is an "emitter": rule 2's walk stops there.
	emits := map[*Node][]emitSite{}
	for _, n := range pass.Graph().Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		if sites := collectEmits(n.Pkg.Info, n.Decl.Body); len(sites) > 0 {
			emits[n] = sites
		}
	}

	// Rule 1 + rule 3: idiom and uniqueness, in scope only.
	for _, n := range pass.Graph().Nodes() {
		sites := emits[n]
		if len(sites) == 0 || !inScope(n) {
			continue
		}
		for _, s := range sites {
			switch {
			case s.direct:
				pass.Reportf(s.call.Pos(), "defer j.Emit(...) evaluates its arguments at defer time and journals pre-operation state; wrap the emit in a deferred closure (defer func() { j.Emit(...) }())")
			case !s.deferred:
				pass.Reportf(s.call.Pos(), "journal event emitted inline in %s; early returns skip it — emit from a deferred closure (defer func() { j.Emit(...) }()) so every exit path journals the outcome", n.Name())
			default:
				checkErrObserved(pass, n, s)
			}
		}
		if len(sites) > 1 {
			pass.Reportf(sites[1].call.Pos(), "%s emits %d journal events; an operation has one boundary — merge into a single deferred emit", n.Name(), len(sites))
		}
	}

	// Rule 2: background reachability. Roots are the static callees of
	// go-statements (and of calls inside go-launched literals).
	type work struct {
		node *Node
		root *Node
	}
	var queue []work
	visited := map[*Node]bool{}
	for _, n := range pass.Graph().Nodes() {
		for _, e := range n.Out {
			if e.Concurrent && e.Kind == EdgeCall && e.Callee.Decl != nil && !visited[e.Callee] {
				visited[e.Callee] = true
				queue = append(queue, work{node: e.Callee, root: e.Callee})
			}
		}
	}
	reportedMut := map[token.Pos]bool{}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if len(emits[w.node]) > 0 {
			continue // journaled op boundary: everything below it is covered
		}
		if inScope(w.node) {
			for _, m := range mutationSites(w.node.Pkg.Info, w.node.Decl.Body) {
				if reportedMut[m.pos] {
					continue
				}
				reportedMut[m.pos] = true
				pass.Reportf(m.pos, "%s in %s runs under background root %s with no journal event on the path; the owning operation must emit one obs.Journal event via a deferred closure", m.desc, w.node.Name(), w.root.Name())
			}
		}
		for _, e := range w.node.Out {
			if e.Kind == EdgeRef || e.Callee.Decl == nil || visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			queue = append(queue, work{node: e.Callee, root: w.root})
		}
	}
}

// checkErrObserved enforces rule 1's error-result clause for a correctly
// deferred emit: a function with an error result must name it and pass it
// to Emit.
func checkErrObserved(pass *ModulePass, n *Node, s emitSite) {
	results := n.Decl.Type.Results
	if results == nil || len(results.List) == 0 {
		return
	}
	last := results.List[len(results.List)-1]
	if t := n.Pkg.Info.TypeOf(last.Type); t == nil || !types.Identical(t, types.Universe.Lookup("error").Type()) {
		return
	}
	if len(last.Names) == 0 {
		pass.Reportf(s.call.Pos(), "%s has an unnamed error result the deferred journal emit cannot observe; name it (err error) and pass it to Emit", n.Name())
		return
	}
	// The named error must appear among the Emit arguments.
	errObjs := map[types.Object]bool{}
	for _, name := range last.Names {
		if obj := n.Pkg.Info.Defs[name]; obj != nil {
			errObjs[obj] = true
		}
	}
	seen := false
	for _, arg := range s.call.Args {
		ast.Inspect(arg, func(nd ast.Node) bool {
			if id, ok := nd.(*ast.Ident); ok && errObjs[n.Pkg.Info.Uses[id]] {
				seen = true
			}
			return !seen
		})
	}
	if !seen {
		pass.Reportf(s.call.Pos(), "deferred journal emit in %s does not record the function's error result %q; pass it to Emit so failures are journaled", n.Name(), last.Names[0].Name)
	}
}

// collectEmits finds every obs.Journal.Emit call under body and classifies
// it against the deferred-closure idiom.
func collectEmits(info *types.Info, body *ast.BlockStmt) []emitSite {
	var sites []emitSite
	var walk func(n ast.Node, inDeferredLit bool)
	walk = func(n ast.Node, inDeferredLit bool) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.DeferStmt:
				if isEmitCall(info, nd.Call) {
					sites = append(sites, emitSite{call: nd.Call, direct: true})
					return false
				}
				if lit, ok := ast.Unparen(nd.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, true)
					for _, arg := range nd.Call.Args {
						walk(arg, inDeferredLit)
					}
					return false
				}
				return true
			case *ast.FuncLit:
				walk(nd.Body, false)
				return false
			case *ast.CallExpr:
				if isEmitCall(info, nd) {
					sites = append(sites, emitSite{call: nd, deferred: inDeferredLit})
				}
				return true
			}
			return true
		})
	}
	walk(body, false)
	return sites
}

// isEmitCall matches calls of (*obs.Journal).Emit.
func isEmitCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" {
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
	return named != nil && named.Obj().Name() == "Journal" &&
		pathInScope(fn.Pkg().Path(), "internal/obs")
}

// mutation is one durable-state mutation site.
type mutation struct {
	pos  token.Pos
	desc string
}

// mutationSites finds cloud.Store Put/Delete calls and os file mutations
// under body.
func mutationSites(info *types.Info, body *ast.BlockStmt) []mutation {
	if body == nil {
		return nil
	}
	var out []mutation
	ast.Inspect(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isStoreMethod(info, sel) && (sel.Sel.Name == "Put" || sel.Sel.Name == "Delete") {
			out = append(out, mutation{pos: call.Pos(), desc: "cloud.Store." + sel.Sel.Name})
			return true
		}
		if fn, _ := info.Uses[sel.Sel].(*types.Func); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" {
			switch fn.Name() {
			case "Remove", "RemoveAll", "Rename", "Truncate":
				out = append(out, mutation{pos: call.Pos(), desc: "os." + fn.Name()})
			}
		}
		return true
	})
	return out
}
