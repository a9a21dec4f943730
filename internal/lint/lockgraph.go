package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockGraph enforces the module-wide lock hierarchy (DESIGN.md §4.5, §4.11,
// §4.14), the head's catalog → stripe → series/group order included: it
// builds a lock-order graph over every package at once, so an acquisition
// chain that crosses a function call — or a package boundary, like lsm
// holding l.mu while calling into head — still produces an edge.
//
// Lock classes are mutex-typed struct fields identified by declaring
// package, type, and field ("lsm.LSM.manifestMu"). The declared hierarchy
// pins the orders the design states in prose:
//
//	manifestMu/refreshMu → l.mu → head catalog → stripe → series/group
//
// and obs.Journal.mu is a leaf: emit sites may hold any other lock, but the
// journal must never call out while holding its own. Edges are derived two
// ways: directly (class A held when class B is acquired in the same body,
// defer-aware — a deferred Unlock keeps its lock held to function end) and
// transitively (class A held at a call whose callee's summary — a fixpoint
// over the call graph — may acquire class B). Function literals run with
// their own lock state and are analyzed independently; goroutine bodies and
// go-statement callees run concurrently, so the spawner's held set never
// flows into them and their acquisitions never flow into caller summaries.
// Bare function references (callbacks) are likewise excluded from
// summaries: registration is not invocation.
//
// Violations: an edge against the declared levels, any out-edge from a
// declared leaf, and any cycle among (possibly undeclared) classes.
var LockGraph = &Analyzer{
	Name:      "lockgraph",
	Doc:       "module-wide lock acquisition order must be acyclic and respect the declared manifestMu → l.mu → stripe → series/group hierarchy",
	RunModule: runLockGraph,
}

// declaredLockLevels orders the named lock classes; a lower level is
// acquired first. Matching is by package-path suffix so fixture modules
// exercise the same table. Equal levels are multi-instance classes
// (individual series/group objects) whose mutual order is unconstrained.
var declaredLockLevels = []struct {
	pkgSuffix, typ, field string
	level                 int
	leaf                  bool
}{
	{"internal/lsm", "LSM", "manifestMu", 10, false},
	{"internal/lsm", "LSM", "refreshMu", 10, false},
	{"internal/lsm", "LSM", "mu", 20, false},
	{"internal/head", "catalog", "mu", 30, false},
	{"internal/head", "stripe", "mu", 40, false},
	{"internal/head", "MemSeries", "mu", 50, false},
	{"internal/head", "MemGroup", "mu", 50, false},
	{"internal/obs", "Journal", "mu", 90, true},
}

// lockClass identifies one mutex field; the zero value means "not a lock".
type lockClass struct {
	pkgPath, typ, field string
}

func (c lockClass) String() string {
	pkg := c.pkgPath
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg + "." + c.typ + "." + c.field
}

// declaredLevel returns (level, leaf, true) when the class is in the table.
func declaredLevel(c lockClass) (int, bool, bool) {
	for _, d := range declaredLockLevels {
		if d.typ == c.typ && d.field == c.field && pathInScope(c.pkgPath, d.pkgSuffix) {
			return d.level, d.leaf, true
		}
	}
	return 0, false, false
}

// lockEdge is one "from held while to acquired" witness.
type lockEdge struct {
	pos token.Pos
	fn  string // function the witness sits in
	via string // callee name when the acquisition is transitive
}

func runLockGraph(pass *ModulePass) {
	lg := &lockGrapher{
		pass:    pass,
		acquire: map[*Node]map[lockClass]bool{},
		calls:   map[*Node][]lockCallSite{},
		edges:   map[lockClass]map[lockClass]lockEdge{},
	}
	// Pass 1: per-function direct acquisitions, direct edges, and call
	// sites annotated with the held set.
	for _, n := range pass.Graph.Nodes() {
		if n.Decl.Body != nil {
			lg.scanBody(n, n.Decl.Body, nil, false)
		}
	}
	// Pass 2: transitive may-acquire summaries over the call graph.
	pass.Graph.Fixpoint(func(n *Node) bool {
		changed := false
		for _, e := range n.Out {
			if e.Kind == EdgeRef || e.Concurrent {
				continue
			}
			for c := range lg.acquire[e.Callee] {
				if !lg.acquire[n][c] {
					if lg.acquire[n] == nil {
						lg.acquire[n] = map[lockClass]bool{}
					}
					lg.acquire[n][c] = true
					changed = true
				}
			}
		}
		return changed
	})
	// Pass 3: held × callee-summary edges at every call site.
	for _, n := range pass.Graph.Nodes() {
		for _, site := range lg.calls[n] {
			for c := range lg.acquire[site.callee] {
				for _, h := range site.held {
					lg.addEdge(h, c, lockEdge{pos: site.pos, fn: n.Name(), via: site.callee.Name()})
				}
			}
		}
	}
	lg.report()
}

type lockCallSite struct {
	callee *Node
	held   []lockClass
	pos    token.Pos
}

type lockGrapher struct {
	pass    *ModulePass
	acquire map[*Node]map[lockClass]bool // direct, then transitive (fixpoint)
	calls   map[*Node][]lockCallSite
	edges   map[lockClass]map[lockClass]lockEdge // first witness per pair
}

func (lg *lockGrapher) addEdge(from, to lockClass, w lockEdge) {
	if from == to {
		return // same class: multi-instance locking, ordered by address/rank elsewhere
	}
	if lg.edges[from] == nil {
		lg.edges[from] = map[lockClass]lockEdge{}
	}
	if _, ok := lg.edges[from][to]; !ok {
		lg.edges[from][to] = w
	}
}

// scanBody walks one executable body, tracking held classes (deferred
// unlocks pin their lock to function end), branch-aware: a lock acquired in
// an if/case body that terminates (returns or breaks) is not held by the
// statements after it; a branch that falls through contributes its held set
// conservatively (union — may-hold).
// held is the entry state: nil for a declaration or a goroutine literal
// (which runs with its own, empty state), the enclosing snapshot is NOT
// propagated into literals because they execute at an unknown later time.
// inGo marks bodies that run on a spawned goroutine: their acquisitions are
// real edges internally but are excluded from n's summary and call sites.
func (lg *lockGrapher) scanBody(n *Node, body *ast.BlockStmt, held []lockClass, inGo bool) {
	bs := &bodyScan{lg: lg, n: n, inGo: inGo, deferred: map[*ast.CallExpr]bool{}}
	bs.scanStmts(body.List, held)
}

type bodyScan struct {
	lg       *lockGrapher
	n        *Node
	inGo     bool
	deferred map[*ast.CallExpr]bool
}

func cloneLocks(held []lockClass) []lockClass {
	return append([]lockClass(nil), held...)
}

// unionLocks merges two may-hold sets.
func unionLocks(a, b []lockClass) []lockClass {
	out := cloneLocks(a)
	for _, c := range b {
		have := false
		for _, e := range out {
			if e == c {
				have = true
				break
			}
		}
		if !have {
			out = append(out, c)
		}
	}
	return out
}

// scanStmts walks a statement list, threading the held set through and
// stopping at a terminator (return, break, continue, goto).
func (bs *bodyScan) scanStmts(stmts []ast.Stmt, held []lockClass) ([]lockClass, bool) {
	for _, s := range stmts {
		var term bool
		held, term = bs.scanStmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (bs *bodyScan) scanStmt(s ast.Stmt, held []lockClass) ([]lockClass, bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = bs.scanStmt(s.Init, held)
		}
		held = bs.scanNode(s.Cond, held)
		out := held
		thenHeld, thenTerm := bs.scanStmts(s.Body.List, cloneLocks(held))
		if !thenTerm {
			out = unionLocks(out, thenHeld)
		}
		elseTerm := false
		if s.Else != nil {
			var elseHeld []lockClass
			elseHeld, elseTerm = bs.scanStmt(s.Else, cloneLocks(held))
			if !elseTerm {
				out = unionLocks(out, elseHeld)
			}
		}
		return out, thenTerm && elseTerm
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = bs.scanNode(r, held)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.BlockStmt:
		return bs.scanStmts(s.List, held)
	case *ast.LabeledStmt:
		return bs.scanStmt(s.Stmt, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = bs.scanStmt(s.Init, held)
		}
		if s.Cond != nil {
			held = bs.scanNode(s.Cond, held)
		}
		bodyHeld, bodyTerm := bs.scanStmts(s.Body.List, cloneLocks(held))
		if !bodyTerm && s.Post != nil {
			bodyHeld, _ = bs.scanStmt(s.Post, bodyHeld)
		}
		if !bodyTerm {
			held = unionLocks(held, bodyHeld)
		}
		return held, false
	case *ast.RangeStmt:
		held = bs.scanNode(s.X, held)
		bodyHeld, bodyTerm := bs.scanStmts(s.Body.List, cloneLocks(held))
		if !bodyTerm {
			held = unionLocks(held, bodyHeld)
		}
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = bs.scanStmt(s.Init, held)
		}
		if s.Tag != nil {
			held = bs.scanNode(s.Tag, held)
		}
		return bs.scanClauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = bs.scanStmt(s.Init, held)
		}
		held, _ = bs.scanStmt(s.Assign, held)
		return bs.scanClauses(s.Body.List, held)
	case *ast.SelectStmt:
		return bs.scanClauses(s.Body.List, held)
	case *ast.DeferStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			bs.lg.scanBody(bs.n, lit.Body, nil, bs.inGo)
			for _, a := range s.Call.Args {
				held = bs.scanNode(a, held)
			}
			return held, false
		}
		bs.deferred[s.Call] = true
		return bs.scanNode(s.Call, held), false
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			bs.lg.scanBody(bs.n, lit.Body, nil, true)
		}
		return held, false // concurrent: nothing held across it
	default:
		return bs.scanNode(s, held), false
	}
}

// scanClauses walks switch/select clauses as parallel branches from the
// same entry state.
func (bs *bodyScan) scanClauses(clauses []ast.Stmt, held []lockClass) ([]lockClass, bool) {
	out := held
	for _, cl := range clauses {
		branch := cloneLocks(held)
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				branch = bs.scanNode(e, branch)
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				branch, _ = bs.scanStmt(cc.Comm, branch)
			}
			body = cc.Body
		default:
			continue
		}
		clHeld, clTerm := bs.scanStmts(body, branch)
		if !clTerm {
			out = unionLocks(out, clHeld)
		}
	}
	return out, false
}

// scanNode applies lock operations and call-site recording over one
// expression or simple statement, returning the updated held set.
func (bs *bodyScan) scanNode(nd ast.Node, held []lockClass) []lockClass {
	if nd == nil {
		return held
	}
	lg, n := bs.lg, bs.n
	ast.Inspect(nd, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			lg.scanBody(n, x.Body, nil, bs.inGo)
			return false
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				lg.scanBody(n, lit.Body, nil, true)
			}
			return false // direct `go f()`: concurrent, nothing held across it
		case *ast.DeferStmt:
			bs.deferred[x.Call] = true
		case *ast.CallExpr:
			if class, method, ok := lg.lockOp(n, x); ok {
				switch method {
				case "Lock", "RLock":
					for _, h := range held {
						lg.addEdge(h, class, lockEdge{pos: x.Pos(), fn: n.Name()})
					}
					held = append(held, class)
					if !bs.inGo {
						if lg.acquire[n] == nil {
							lg.acquire[n] = map[lockClass]bool{}
						}
						lg.acquire[n][class] = true
					}
				case "Unlock", "RUnlock":
					if bs.deferred[x] {
						return true // lock stays held to function end
					}
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == class {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
			if len(held) > 0 && !bs.inGo {
				for _, callee := range lg.pass.Graph.Callees(x) {
					lg.calls[n] = append(lg.calls[n], lockCallSite{
						callee: callee,
						held:   cloneLocks(held),
						pos:    x.Pos(),
					})
				}
			}
		}
		return true
	})
	return held
}

// lockOp matches <expr>.<muField>.<Lock|RLock|Unlock|RUnlock>() where
// muField is a sync.Mutex or sync.RWMutex struct field, returning the
// field's lock class.
func (lg *lockGrapher) lockOp(n *Node, call *ast.CallExpr) (lockClass, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, "", false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockClass{}, "", false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, "", false
	}
	info := n.Pkg.Info
	fv, _ := info.Uses[field.Sel].(*types.Var)
	if fv == nil || !fv.IsField() || !isMutexType(fv.Type()) {
		return lockClass{}, "", false
	}
	owner := derefNamed(info.TypeOf(field.X))
	if owner == nil || owner.Obj().Pkg() == nil {
		return lockClass{}, "", false
	}
	return lockClass{pkgPath: owner.Obj().Pkg().Path(), typ: owner.Obj().Name(), field: field.Sel.Name}, method, true
}

func isMutexType(t types.Type) bool {
	named, _ := types.Unalias(t).(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// report turns the accumulated edge set into diagnostics: declared-order
// inversions, leaf out-edges, then cycles not already explained by an
// inversion.
func (lg *lockGrapher) report() {
	type flat struct {
		from, to lockClass
		w        lockEdge
	}
	var all []flat
	for from, tos := range lg.edges {
		for to, w := range tos {
			all = append(all, flat{from, to, w})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w.pos != all[j].w.pos {
			return all[i].w.pos < all[j].w.pos
		}
		return all[i].to.String() < all[j].to.String()
	})

	violated := map[[2]lockClass]bool{}
	for _, e := range all {
		via := ""
		if e.w.via != "" {
			via = fmt.Sprintf(" (transitively through %s)", e.w.via)
		}
		fromLevel, fromLeaf, fromKnown := declaredLevel(e.from)
		toLevel, _, toKnown := declaredLevel(e.to)
		switch {
		case fromKnown && fromLeaf:
			violated[[2]lockClass{e.from, e.to}] = true
			lg.pass.Reportf(e.w.pos, "leaf lock %s is held in %s while %s is acquired%s; a leaf lock must never be held across another acquisition", e.from, e.w.fn, e.to, via)
		case fromKnown && toKnown && fromLevel > toLevel:
			violated[[2]lockClass{e.from, e.to}] = true
			lg.pass.Reportf(e.w.pos, "lock order violation in %s: %s (level %d) acquired while %s (level %d) is held%s; the declared hierarchy acquires %s first", e.w.fn, e.to, toLevel, e.from, fromLevel, via, e.to)
		}
	}

	// Cycle detection over the remaining graph: report each strongly
	// connected component once, unless a declared-order violation inside it
	// already told the story.
	for _, scc := range lockSCCs(lg.edges) {
		if len(scc) < 2 {
			continue
		}
		inSCC := map[lockClass]bool{}
		for _, c := range scc {
			inSCC[c] = true
		}
		explained := false
		for pair := range violated {
			if inSCC[pair[0]] && inSCC[pair[1]] {
				explained = true
				break
			}
		}
		if explained {
			continue
		}
		sort.Slice(scc, func(i, j int) bool { return scc[i].String() < scc[j].String() })
		names := make([]string, 0, len(scc))
		for _, c := range scc {
			names = append(names, c.String())
		}
		// Witness: the first recorded edge inside the component.
		var w lockEdge
		for _, e := range all {
			if inSCC[e.from] && inSCC[e.to] {
				w = e.w
				break
			}
		}
		lg.pass.Reportf(w.pos, "lock-order cycle among {%s}: these locks are acquired in both orders (witness in %s); pick one order or split the critical sections", strings.Join(names, ", "), w.fn)
	}
}

// lockSCCs computes strongly connected components of the class graph
// (iterative Tarjan).
func lockSCCs(edges map[lockClass]map[lockClass]lockEdge) [][]lockClass {
	var nodes []lockClass
	seen := map[lockClass]bool{}
	add := func(c lockClass) {
		if !seen[c] {
			seen[c] = true
			nodes = append(nodes, c)
		}
	}
	for from, tos := range edges {
		add(from)
		for to := range tos {
			add(to)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	index := map[lockClass]int{}
	low := map[lockClass]int{}
	onStack := map[lockClass]bool{}
	var stack []lockClass
	var sccs [][]lockClass
	next := 0

	var strongconnect func(v lockClass)
	strongconnect = func(v lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []lockClass
		for to := range edges[v] {
			succs = append(succs, to)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i].String() < succs[j].String() })
		for _, w := range succs {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return sccs
}
