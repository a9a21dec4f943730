package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
// and obs.Journal.mu and lsm.objectBook.mu are leaves: their callers may
// hold any other lock, but neither may call out while holding its own.
// Edges are derived two ways: directly (class A held when class B is
// acquired in the same body, defer-aware — a deferred Unlock keeps its
// lock held to function end) and transitively (class A held at a call
// whose callee's summary — a fixpoint over the call graph — may acquire
// class B). Function literals run with their own lock state and are
// analyzed independently; goroutine bodies and go-statement callees run
// concurrently, so the spawner's held set never flows into them and their
// acquisitions never flow into caller summaries.
// Bare function references (callbacks) are likewise excluded from
// summaries: registration is not invocation.
//
// Violations: an edge against the declared levels, any out-edge from a
// declared leaf, and any cycle among (possibly undeclared) classes.
var LockGraph = &Analyzer{
	Name: "lockgraph",
	Doc:  "module-wide lock acquisition order must be acyclic and respect the declared manifestMu → l.mu → stripe → series/group hierarchy",
	Run:  runLockGraph,
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
	{"internal/lsm", "objectBook", "mu", 90, true},
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
		pass:     pass,
		acquire:  map[*Node]map[lockClass]bool{},
		deferred: map[*ast.CallExpr]bool{},
		calls:    map[*Node][]lockCallSite{},
		edges:    map[lockClass]map[lockClass]lockEdge{},
	}
	// Pass 1: per-function direct acquisitions, direct edges, and call
	// sites annotated with the held set.
	for _, n := range pass.Graph().Nodes() {
		if n.Decl.Body != nil {
			lg.cur = n
			walkFunc(lg, n)
		}
	}
	// Pass 2: transitive may-acquire summaries over the call graph.
	pass.Graph().Fixpoint(func(n *Node) bool {
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
	for _, n := range pass.Graph().Nodes() {
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

	cur      *Node                  // declaration being walked
	deferred map[*ast.CallExpr]bool // deferred calls: their Unlock keeps the lock held
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

// lockState is the may-hold set on one path. inGo marks a goroutine body:
// its acquisitions are real edges internally but stay out of the
// enclosing declaration's summary and call sites.
type lockState struct {
	held []lockClass
	inGo bool
}

func (lg *lockGrapher) body(concurrent bool) lockState { return lockState{inGo: concurrent} }

func (lg *lockGrapher) clone(s lockState) lockState {
	s.held = slices.Clone(s.held)
	return s
}

// join is the may-hold union.
func (lg *lockGrapher) join(a, b lockState) lockState {
	for _, c := range b.held {
		if !slices.Contains(a.held, c) {
			a.held = append(a.held, c)
		}
	}
	return a
}

// transfer applies the lock operations in one node and records its call
// sites with the held set.
func (lg *lockGrapher) transfer(st lockState, nd ast.Node) lockState {
	switch s := nd.(type) {
	case *ast.GoStmt:
		return st // concurrent: nothing held across it
	case *ast.DeferStmt:
		lg.deferred[s.Call] = true
	case *ast.TypeSwitchStmt:
		nd = s.Assign
	}
	n := lg.cur
	ast.Inspect(nd, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if class, method, ok := lg.lockOp(n, x); ok {
				switch method {
				case "Lock", "RLock":
					for _, h := range st.held {
						lg.addEdge(h, class, lockEdge{pos: x.Pos(), fn: n.Name()})
					}
					st.held = append(st.held, class)
					if !st.inGo {
						if lg.acquire[n] == nil {
							lg.acquire[n] = map[lockClass]bool{}
						}
						lg.acquire[n][class] = true
					}
				case "Unlock", "RUnlock":
					if lg.deferred[x] {
						return true // lock stays held to function end
					}
					if i := slices.Index(st.held, class); i >= 0 {
						st.held = slices.Delete(st.held, i, i+1)
					}
				}
				return true
			}
			if len(st.held) > 0 && !st.inGo {
				for _, callee := range lg.pass.Graph().Callees(x) {
					lg.calls[n] = append(lg.calls[n], lockCallSite{
						callee: callee,
						held:   slices.Clone(st.held),
						pos:    x.Pos(),
					})
				}
			}
		}
		return true
	})
	return st
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
		explained := false
		for pair := range violated {
			explained = explained || scc[pair[0]] && scc[pair[1]]
		}
		if explained {
			continue
		}
		var names []string
		for c := range scc {
			names = append(names, c.String())
		}
		sort.Strings(names)
		// Witness: the first recorded edge inside the component.
		var w lockEdge
		for _, e := range all {
			if scc[e.from] && scc[e.to] {
				w = e.w
				break
			}
		}
		lg.pass.Reportf(w.pos, "lock-order cycle among {%s}: these locks are acquired in both orders (witness in %s); pick one order or split the critical sections", strings.Join(names, ", "), w.fn)
	}
}

// lockSCCs returns the lock-order cycles: the class graph's strongly
// connected components, each the set of classes that reach one another (a
// class is on a cycle when it reaches itself; addEdge drops self-edges).
func lockSCCs(edges map[lockClass]map[lockClass]lockEdge) []map[lockClass]bool {
	reach := map[lockClass]map[lockClass]bool{}
	for from := range edges {
		seen := map[lockClass]bool{}
		for stack := []lockClass{from}; len(stack) > 0; {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for to := range edges[c] {
				if !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		reach[from] = seen
	}
	var sccs []map[lockClass]bool
	done := map[lockClass]bool{}
	for from := range edges {
		if done[from] || !reach[from][from] {
			continue
		}
		scc := map[lockClass]bool{}
		for c := range reach[from] {
			if reach[c][from] {
				scc[c], done[c] = true, true
			}
		}
		sccs = append(sccs, scc)
	}
	return sccs
}
