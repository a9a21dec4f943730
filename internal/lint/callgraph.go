package lint

// callgraph.go is the interprocedural layer under the module-wide analyzers
// (DESIGN.md §4.14): a conservative call graph over every loaded package,
// plus a worklist fixpoint that analyzers use to compute summaries
// (transitive lock-acquire sets, pooled-ownership effects) bottom-up.
//
// Resolution rules, in order of confidence:
//
//   - EdgeCall: the callee is statically known — a direct function call, a
//     method call on a concrete receiver, or a call of an interface method
//     (the edge targets the interface method's *types.Func).
//   - EdgeDynamic: conservative interface dispatch — for a call through an
//     interface, one edge per concrete named type in the loaded packages
//     whose method set satisfies the interface. Over-approximates (the
//     value may never hold that type) but never misses a module target.
//   - EdgeRef: a bare mention of a function or method (callback
//     registration, method value, goroutine argument). The function may run
//     later with unknown lock state, so analyzers choose per-invariant
//     whether a reference counts as a call (faultcover: yes; lockgraph: no).
//
// Function-literal bodies are attributed to their enclosing declaration,
// reusing the faultcover convention. Edges that originate inside a
// go-statement (either `go f()` or anywhere inside a `go func(){...}()`
// literal) carry Concurrent=true: the work happens on another goroutine,
// so the spawner's held locks are not held across it.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies how a call-graph edge was derived.
type EdgeKind uint8

const (
	// EdgeCall is a statically resolved call.
	EdgeCall EdgeKind = iota
	// EdgeDynamic is a conservative interface-dispatch resolution.
	EdgeDynamic
	// EdgeRef is a bare function/method-value reference.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeDynamic:
		return "dynamic"
	case EdgeRef:
		return "ref"
	}
	return "unknown"
}

// Edge is one caller→callee relation with its witness position.
type Edge struct {
	Caller     *Node
	Callee     *Node
	Pos        token.Pos
	Kind       EdgeKind
	Concurrent bool // site is a go statement or inside a go-launched literal
	Deferred   bool // site is the call of a defer statement
}

// Node is one function in the graph. Functions declared in the loaded
// packages have Decl and Pkg set; interface methods and imported functions
// that appear as callees are represented by bodyless nodes.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil when no body was loaded
	Pkg  *Package      // declaring loaded package, nil otherwise
	Out  []Edge
	In   []Edge
	// Lits are the function literals in Decl's body, nested ones included,
	// in source order.
	Lits []*ast.FuncLit
}

// Name returns a readable package-qualified function name for messages.
func (n *Node) Name() string {
	if n.Fn.Pkg() == nil {
		return n.Fn.Name()
	}
	if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := derefNamed(sig.Recv().Type()); named != nil {
			return named.Obj().Name() + "." + n.Fn.Name()
		}
	}
	return n.Fn.Name()
}

// CallGraph is the module-wide graph plus the call-site index.
type CallGraph struct {
	Fset *token.FileSet

	nodes    map[*types.Func]*Node
	declared []*Node // FuncDecl nodes in load order (deterministic)
	concrete []*types.Named
	sites    map[*ast.CallExpr][]*Node
	dispatch map[dispatchKey][]*types.Func
}

type dispatchKey struct {
	iface  *types.Interface
	method string
}

// Node returns the graph node for fn, or nil if fn never appears.
func (g *CallGraph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every declared function in deterministic load order.
func (g *CallGraph) Nodes() []*Node { return g.declared }

// Callees returns the resolved callee nodes of a call expression: the
// static target, plus the conservative dispatch expansion for interface
// calls. Calls through function values resolve to nothing.
func (g *CallGraph) Callees(call *ast.CallExpr) []*Node { return g.sites[call] }

// Fixpoint runs a summary computation to a fixed point: recompute derives a
// node's summary from its callees' current summaries (stored by the caller)
// and reports whether it changed; every caller of a changed node is
// re-enqueued. Cycle-safe by construction — recursion just iterates until
// summaries stabilize.
func (g *CallGraph) Fixpoint(recompute func(n *Node) bool) {
	queued := make(map[*Node]bool, len(g.declared))
	queue := make([]*Node, 0, len(g.declared))
	for _, n := range g.declared {
		queued[n] = true
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		queued[n] = false
		if !recompute(n) {
			continue
		}
		for _, e := range n.In {
			if c := e.Caller; c.Decl != nil && !queued[c] {
				queued[c] = true
				queue = append(queue, c)
			}
		}
	}
}

// BuildCallGraph constructs the graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Fset:     sharedFset,
		nodes:    map[*types.Func]*Node{},
		sites:    map[*ast.CallExpr][]*Node{},
		dispatch: map[dispatchKey][]*types.Func{},
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				g.concrete = append(g.concrete, named)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := g.ensure(fn)
				n.Decl, n.Pkg = fd, pkg
				g.declared = append(g.declared, n)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				w := &graphWalker{g: g, pkg: pkg, owner: g.nodes[fn.Origin()]}
				w.walk(fd.Body, false)
			}
		}
	}
	return g
}

func (g *CallGraph) ensure(fn *types.Func) *Node {
	fn = fn.Origin()
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &Node{Fn: fn}
	g.nodes[fn] = n
	return n
}

// implementations resolves an interface method against every concrete named
// type in the loaded packages (cached per interface+method).
func (g *CallGraph) implementations(iface *types.Interface, method string, from *types.Package) []*types.Func {
	key := dispatchKey{iface, method}
	if fns, ok := g.dispatch[key]; ok {
		return fns
	}
	var out []*types.Func
	for _, named := range g.concrete {
		var t types.Type = named
		if !types.Implements(t, iface) {
			t = types.NewPointer(named)
			if !types.Implements(t, iface) {
				continue
			}
		}
		ms := types.NewMethodSet(t)
		sel := ms.Lookup(from, method)
		if sel == nil {
			sel = ms.Lookup(named.Obj().Pkg(), method)
		}
		if sel == nil {
			continue
		}
		if fn, ok := sel.Obj().(*types.Func); ok {
			out = append(out, fn)
		}
	}
	g.dispatch[key] = out
	return out
}

// graphWalker builds edges for one declared function, attributing nested
// function-literal bodies to the declaration.
type graphWalker struct {
	g     *CallGraph
	pkg   *Package
	owner *Node
}

func (w *graphWalker) walk(n ast.Node, concurrent bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			w.call(n.Call, concurrent, true, false)
			return false
		case *ast.DeferStmt:
			w.call(n.Call, concurrent, false, true)
			return false
		case *ast.CallExpr:
			w.call(n, concurrent, false, false)
			return false
		case *ast.FuncLit:
			w.owner.Lits = append(w.owner.Lits, n)
			w.walk(n.Body, concurrent)
			return false
		case *ast.SelectorExpr:
			w.ref(n, concurrent)
			w.walk(n.X, concurrent)
			return false
		case *ast.Ident:
			if fn, ok := w.pkg.Info.Uses[n].(*types.Func); ok {
				w.edge(fn, n.Pos(), EdgeRef, concurrent, false, nil)
			}
		}
		return true
	})
}

// call resolves one call site and records its edges. spawn marks `go f(x)`
// itself; arguments still evaluate synchronously on the spawning goroutine.
func (w *graphWalker) call(call *ast.CallExpr, concurrent, spawn, deferred bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		w.owner.Lits = append(w.owner.Lits, fun)
		w.walk(fun.Body, concurrent || spawn)
	case *ast.Ident:
		if fn, ok := w.pkg.Info.Uses[fun].(*types.Func); ok {
			w.edge(fn, call.Pos(), EdgeCall, concurrent || spawn, deferred, call)
		}
		// Function-value calls and conversions carry no static edge; the
		// value's creation site contributed an EdgeRef.
	case *ast.SelectorExpr:
		if sel := w.pkg.Info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn != nil {
				w.edge(fn, call.Pos(), EdgeCall, concurrent || spawn, deferred, call)
				if iface := underlyingInterface(sel.Recv()); iface != nil {
					for _, impl := range w.g.implementations(iface, fn.Name(), w.pkg.Types) {
						w.edge(impl, call.Pos(), EdgeDynamic, concurrent || spawn, deferred, call)
					}
				}
			}
		} else if fn, ok := w.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			// Package-qualified call (pkg.F) or method expression target.
			w.edge(fn, call.Pos(), EdgeCall, concurrent || spawn, deferred, call)
		}
		w.walk(fun.X, concurrent)
	default:
		w.walk(call.Fun, concurrent)
	}
	for _, arg := range call.Args {
		w.walk(arg, concurrent)
	}
}

// ref records a method-value or qualified function reference outside call
// position (the selector's base expression is walked by the caller).
func (w *graphWalker) ref(sel *ast.SelectorExpr, concurrent bool) {
	if s := w.pkg.Info.Selections[sel]; s != nil {
		if s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr {
			if fn, ok := s.Obj().(*types.Func); ok {
				w.edge(fn, sel.Pos(), EdgeRef, concurrent, false, nil)
			}
		}
		return
	}
	if fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func); ok {
		w.edge(fn, sel.Pos(), EdgeRef, concurrent, false, nil)
	}
}

func (w *graphWalker) edge(callee *types.Func, pos token.Pos, kind EdgeKind, concurrent, deferred bool, site *ast.CallExpr) {
	cn := w.g.ensure(callee)
	e := Edge{Caller: w.owner, Callee: cn, Pos: pos, Kind: kind, Concurrent: concurrent, Deferred: deferred}
	w.owner.Out = append(w.owner.Out, e)
	cn.In = append(cn.In, e)
	if site != nil {
		w.g.sites[site] = append(w.g.sites[site], cn)
	}
}

// underlyingInterface unwraps t down to an interface type, or nil.
func underlyingInterface(t types.Type) *types.Interface {
	if t == nil {
		return nil
	}
	iface, _ := types.Unalias(t).Underlying().(*types.Interface)
	return iface
}
