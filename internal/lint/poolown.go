package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolOwn enforces the pooled-ownership contract (DESIGN.md §4.10, §4.14):
// a value obtained from a sync.Pool — directly or through a getter like
// chunkenc.GetQueryIterator or sstable.Table.Iter — must reach a
// Release/Put on every path out of the function that owns it, must not be
// used after it is released, and must not be released twice.
//
// The analyzer is built on call-graph summaries computed to a fixpoint:
//
//   - getter: the function returns a pool.Get result (possibly through
//     another getter).
//   - releases(i): parameter i (receiver = slot 0) flows to pool.Put or to
//     another releasing parameter — including through type switches, so
//     chunkenc.ReleaseIterator's Releasable dispatch resolves.
//   - captures(i): parameter i escapes into a field, container, composite
//     literal, channel, or return value; ownership transfers to the callee
//     (GetBufferIterator capturing its SampleBuffer, GetQueryIterator
//     capturing its sources).
//
// The intra-function checker then tracks locals bound from getter calls:
// Owned until released, escaped (tracking stops) when stored, returned,
// captured by a closure, or passed to an unknown callee — the analyzer
// only reports what it can prove on the path structure it models
// (branch-sensitive if/switch with state merge, loop bodies once, function
// literals as independent scopes).
var PoolOwn = &Analyzer{
	Name:      "poolown",
	Doc:       "every pooled Get must reach a Release/Put on all paths; no use-after-release, no double release",
	RunModule: runPoolOwn,
}

// poolSummary is one function's ownership effects.
type poolSummary struct {
	getter   bool
	releases []bool // by slot: receiver (if any) then parameters
	captures []bool
}

func summariesEqual(a, b *poolSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.getter != b.getter || len(a.releases) != len(b.releases) {
		return false
	}
	for i := range a.releases {
		if a.releases[i] != b.releases[i] || a.captures[i] != b.captures[i] {
			return false
		}
	}
	return true
}

type poolFacts struct {
	pass *ModulePass
	sums map[*Node]*poolSummary
}

func runPoolOwn(pass *ModulePass) {
	pf := &poolFacts{pass: pass, sums: map[*Node]*poolSummary{}}
	pass.Graph.Fixpoint(func(n *Node) bool {
		if n.Decl == nil || n.Decl.Body == nil {
			return false
		}
		next := pf.summarize(n)
		if summariesEqual(pf.sums[n], next) {
			return false
		}
		pf.sums[n] = next
		return true
	})
	for _, n := range pass.Graph.Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		c := &poolChecker{pf: pf, pkg: n.Pkg, reported: map[token.Pos]bool{}}
		c.checkFunc(n.Decl.Type.Results, n.Decl.Body)
		for len(c.lits) > 0 {
			lit := c.lits[0]
			c.lits = c.lits[1:]
			c.checkFunc(lit.Type.Results, lit.Body)
		}
	}
}

// --- slot/alias helpers ---

// paramSlots maps a declaration's receiver and parameter objects to slots.
func paramSlots(pkg *Package, decl *ast.FuncDecl) map[types.Object]int {
	slots := map[types.Object]int{}
	n := 0
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				n++ // unnamed parameter still occupies a slot
				continue
			}
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					slots[obj] = n
				}
				n++
			}
		}
	}
	bind(decl.Recv)
	bind(decl.Type.Params)
	return slots
}

func slotCount(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n
}

// isPoolOp matches (*sync.Pool).Get / (*sync.Pool).Put calls.
func isPoolOp(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	return isSyncPool(derefNamed(s.Recv()))
}

// unwrapValue strips parens and type assertions: the checker tracks the
// asserted value of `pool.Get().(*T)` as the pooled object itself.
func unwrapValue(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		default:
			return e
		}
	}
}

// methodValRecv returns the receiver expression when call is a method
// value invocation (x.M(...)).
func methodValRecv(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}

// calleeSlotEffect aggregates the resolved callees' effect on one argument
// slot: released / captured if ANY callee summary says so, known if at
// least one callee had a computed summary.
func (pf *poolFacts) calleeSlotEffect(call *ast.CallExpr, slot int) (released, captured, known bool) {
	for _, cn := range pf.pass.Graph.Callees(call) {
		s := pf.sums[cn]
		if s == nil {
			if cn.Decl != nil {
				known = true // summarized as no-effect
			}
			continue
		}
		known = true
		i := slot
		if i >= len(s.releases) && len(s.releases) > 0 {
			i = len(s.releases) - 1 // variadic tail
		}
		if i >= 0 && i < len(s.releases) {
			released = released || s.releases[i]
			captured = captured || s.captures[i]
		}
	}
	return released, captured, known
}

// --- summary computation ---

// summarize computes one function's poolSummary from its body and the
// current summaries of its callees.
func (pf *poolFacts) summarize(n *Node) *poolSummary {
	pkg := n.Pkg
	info := pkg.Info
	sum := &poolSummary{
		releases: make([]bool, slotCount(n.Fn)),
		captures: make([]bool, slotCount(n.Fn)),
	}
	aliases := paramSlots(pkg, n.Decl) // object -> slot
	getVals := map[types.Object]bool{} // locals holding pool-get-derived values
	markSlot := func(obj types.Object, rel, cap bool) {
		if slot, ok := aliases[obj]; ok && slot < len(sum.releases) {
			sum.releases[slot] = sum.releases[slot] || rel
			sum.captures[slot] = sum.captures[slot] || cap
		}
	}
	aliasOf := func(e ast.Expr) (types.Object, bool) {
		id, ok := unwrapValue(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := info.Uses[id]
		if obj == nil {
			return nil, false
		}
		_, tracked := aliases[obj]
		return obj, tracked
	}
	isGetterRHS := func(e ast.Expr) bool {
		call, ok := unwrapValue(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		if isPoolOp(info, call, "Get") {
			return true
		}
		for _, cn := range pf.pass.Graph.Callees(call) {
			if s := pf.sums[cn]; s != nil && s.getter {
				return true
			}
		}
		return false
	}

	var scan func(nd ast.Node)
	scan = func(nd ast.Node) {
		ast.Inspect(nd, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				// Alias propagation: q := p, q := p.(T); getter-value
				// propagation: v := pool.Get().(T), v := getter().
				if len(nd.Lhs) == len(nd.Rhs) || (len(nd.Rhs) == 1 && len(nd.Lhs) == 2) {
					for i, lhs := range nd.Lhs {
						rhs := nd.Rhs[0]
						if len(nd.Lhs) == len(nd.Rhs) {
							rhs = nd.Rhs[i]
						} else if i > 0 {
							break // v, ok := x.(T): only v aliases
						}
						lid, ok := lhs.(*ast.Ident)
						if !ok {
							// Storing into a field/element captures any
							// aliased RHS (handled by the generic cases
							// below via CompositeLit/Ident scan).
							if obj, tracked := aliasOf(rhs); tracked {
								markSlot(obj, false, true)
							}
							continue
						}
						lobj := info.Defs[lid]
						if lobj == nil {
							lobj = info.Uses[lid]
						}
						if lobj == nil {
							continue
						}
						if obj, tracked := aliasOf(rhs); tracked {
							aliases[lobj] = aliases[obj]
						}
						if id, ok := unwrapValue(rhs).(*ast.Ident); ok && getVals[info.Uses[id]] {
							getVals[lobj] = true
						}
						if isGetterRHS(rhs) {
							getVals[lobj] = true
						}
					}
				}
			case *ast.TypeSwitchStmt:
				// switch r := p.(type): each clause's implicit r aliases p.
				var src ast.Expr
				switch a := nd.Assign.(type) {
				case *ast.AssignStmt:
					if len(a.Rhs) == 1 {
						if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
							src = ta.X
						}
					}
				case *ast.ExprStmt:
					if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
						src = ta.X
					}
				}
				if obj, tracked := aliasOf(src); tracked {
					for _, stmt := range nd.Body.List {
						if cc, ok := stmt.(*ast.CaseClause); ok {
							if impl := info.Implicits[cc]; impl != nil {
								aliases[impl] = aliases[obj]
							}
						}
					}
				}
			case *ast.ReturnStmt:
				for _, res := range nd.Results {
					if obj, tracked := aliasOf(res); tracked {
						markSlot(obj, false, true)
					}
					if isGetterRHS(res) {
						sum.getter = true
					}
					if id, ok := unwrapValue(res).(*ast.Ident); ok && getVals[info.Uses[id]] {
						sum.getter = true
					}
				}
			case *ast.CallExpr:
				if isPoolOp(info, nd, "Put") && len(nd.Args) > 0 {
					if obj, tracked := aliasOf(nd.Args[0]); tracked {
						markSlot(obj, true, false)
					}
					return true
				}
				if recv := methodValRecv(info, nd); recv != nil {
					if obj, tracked := aliasOf(recv); tracked {
						rel, cap, known := pf.calleeSlotEffect(nd, 0)
						if !known {
							cap = true // unknown method on a param: assume escape
						}
						markSlot(obj, rel, cap)
					}
				}
				base := 0
				if methodValRecv(info, nd) != nil {
					base = 1
				}
				for i, arg := range nd.Args {
					obj, tracked := aliasOf(arg)
					if !tracked {
						continue
					}
					if id, ok := ast.Unparen(nd.Fun).(*ast.Ident); ok {
						if b, isB := info.Uses[id].(*types.Builtin); isB {
							if b.Name() == "append" {
								markSlot(obj, false, true)
							}
							continue
						}
					}
					rel, cap, known := pf.calleeSlotEffect(nd, base+i)
					if !known {
						cap = true // unknown callee: the parameter may escape
					}
					markSlot(obj, rel, cap)
				}
			case *ast.CompositeLit:
				for _, el := range nd.Elts {
					ast.Inspect(el, func(e ast.Node) bool {
						if id, ok := e.(*ast.Ident); ok {
							if obj := info.Uses[id]; obj != nil {
								markSlot(obj, false, true)
							}
						}
						return true
					})
				}
			case *ast.SendStmt:
				if obj, tracked := aliasOf(nd.Value); tracked {
					markSlot(obj, false, true)
				}
			case *ast.FuncLit:
				ast.Inspect(nd.Body, func(e ast.Node) bool {
					if id, ok := e.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							markSlot(obj, false, true)
						}
					}
					return true
				})
				return false
			case *ast.UnaryExpr:
				if nd.Op == token.AND {
					if obj, tracked := aliasOf(nd.X); tracked {
						markSlot(obj, false, true)
					}
				}
			}
			return true
		})
	}
	scan(n.Decl.Body)
	return sum
}

// --- intra-function checking ---

type ownState uint8

const (
	ownOwned ownState = iota
	ownDeferRel
	ownReleased
)

type ownInfo struct {
	state  ownState
	getPos token.Pos
	relPos token.Pos
}

type ownMap map[*types.Var]ownInfo

func cloneOwn(m ownMap) ownMap {
	out := make(ownMap, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

type poolChecker struct {
	pf       *poolFacts
	pkg      *Package
	reported map[token.Pos]bool
	lits     []*ast.FuncLit // queued for independent analysis
}

func (c *poolChecker) reportf(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pf.pass.Reportf(pos, format, args...)
}

func (c *poolChecker) line(pos token.Pos) int {
	return c.pf.pass.Fset.Position(pos).Line
}

// checkFunc analyzes one executable body with a fresh ownership state.
func (c *poolChecker) checkFunc(results *ast.FieldList, body *ast.BlockStmt) {
	st := ownMap{}
	terminated := c.walkBlock(st, body.List)
	if !terminated {
		c.leakCheck(st, body.End())
	}
}

// leakCheck reports every still-owned pooled value at an exit point.
func (c *poolChecker) leakCheck(st ownMap, pos token.Pos) {
	for v, oi := range st {
		if oi.state == ownOwned {
			c.reportf(pos, "pooled value %q (obtained at line %d) is not released on this path; call its Release/Put (or hand ownership off) on every return", v.Name(), c.line(oi.getPos))
		}
	}
}

func (c *poolChecker) walkBlock(st ownMap, stmts []ast.Stmt) (terminated bool) {
	for _, s := range stmts {
		if terminated {
			return true // unreachable tail; stop modelling
		}
		terminated = c.walkStmt(st, s)
	}
	return terminated
}

func (c *poolChecker) walkStmt(st ownMap, s ast.Stmt) (terminated bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.walkAssign(st, s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					c.walkAssign(st, lhs, vs.Values)
				}
			}
		}
	case *ast.ExprStmt:
		return c.scanExpr(st, s.X)
	case *ast.DeferStmt:
		c.walkDefer(st, s.Call)
	case *ast.GoStmt:
		c.escapeMentioned(st, s.Call)
	case *ast.SendStmt:
		c.scanExpr(st, s.Chan)
		if v := c.trackedIdent(st, s.Value); v != nil {
			delete(st, v) // ownership crosses the channel
		} else {
			c.scanExpr(st, s.Value)
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if v := c.trackedIdent(st, res); v != nil {
				delete(st, v) // returning the value hands ownership out
				continue
			}
			c.scanExpr(st, res)
		}
		c.leakCheck(st, s.Pos())
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(st, s.Init)
		}
		c.scanExpr(st, s.Cond)
		thenSt := cloneOwn(st)
		thenTerm := c.walkBlock(thenSt, s.Body.List)
		elseSt := cloneOwn(st)
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(elseSt, s.Else)
		}
		c.mergeInto(st, []ownMap{thenSt, elseSt}, []bool{thenTerm, elseTerm})
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return c.walkBlock(st, s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(st, s.Init)
		}
		if s.Cond != nil {
			c.scanExpr(st, s.Cond)
		}
		entry := cloneOwn(st)
		bodySt := cloneOwn(st)
		c.walkBlock(bodySt, s.Body.List)
		if s.Post != nil {
			c.walkStmt(bodySt, s.Post)
		}
		c.loopMerge(st, entry, bodySt)
	case *ast.RangeStmt:
		c.scanExpr(st, s.X)
		entry := cloneOwn(st)
		bodySt := cloneOwn(st)
		c.walkBlock(bodySt, s.Body.List)
		c.loopMerge(st, entry, bodySt)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(st, s.Init)
		}
		if s.Tag != nil {
			c.scanExpr(st, s.Tag)
		}
		return c.walkCases(st, s.Body.List, hasDefaultClause(s.Body.List))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(st, s.Init)
		}
		// The asserted value stays usable; clauses are branches.
		return c.walkCases(st, s.Body.List, hasDefaultClause(s.Body.List))
	case *ast.SelectStmt:
		return c.walkCases(st, s.Body.List, true)
	case *ast.LabeledStmt:
		return c.walkStmt(st, s.Stmt)
	case *ast.BranchStmt:
		return true // break/continue/goto: stop modelling this path
	case *ast.IncDecStmt:
		c.scanExpr(st, s.X)
	}
	return false
}

func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, cl := range clauses {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// walkCases analyzes switch/select clauses as parallel branches.
func (c *poolChecker) walkCases(st ownMap, clauses []ast.Stmt, exhaustive bool) bool {
	var states []ownMap
	var terms []bool
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				c.scanExpr(st, e)
			}
			body = cc.Body
		case *ast.CommClause:
			body = cc.Body
		default:
			continue
		}
		bst := cloneOwn(st)
		terms = append(terms, c.walkBlock(bst, body))
		states = append(states, bst)
	}
	if !exhaustive {
		states = append(states, cloneOwn(st))
		terms = append(terms, false)
	}
	c.mergeInto(st, states, terms)
	allTerm := len(terms) > 0
	for _, t := range terms {
		allTerm = allTerm && t
	}
	return allTerm
}

// mergeInto folds branch states back into st: a variable keeps its state
// only when every non-terminated branch agrees; disagreement drops
// tracking (no false positives from path-insensitive joins).
func (c *poolChecker) mergeInto(st ownMap, states []ownMap, terms []bool) {
	var live []ownMap
	for i, s := range states {
		if !terms[i] {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		if len(states) > 0 {
			for k := range st {
				delete(st, k)
			}
			for k, v := range states[0] {
				st[k] = v
			}
		}
		return
	}
	keys := map[*types.Var]bool{}
	for _, s := range live {
		for k := range s {
			keys[k] = true
		}
	}
	for k := range st {
		keys[k] = true
	}
	for k := range keys {
		first, ok := live[0][k]
		agree := ok
		for _, s := range live[1:] {
			v, ok2 := s[k]
			if !ok2 || v.state != first.state {
				agree = false
				break
			}
		}
		if agree {
			st[k] = first
		} else {
			delete(st, k)
		}
	}
}

// loopMerge restores the entry state, dropping any variable the loop body
// touched (analyzed once, not to fixpoint) and discarding body-scoped ones.
func (c *poolChecker) loopMerge(st ownMap, entry, body ownMap) {
	for k := range st {
		delete(st, k)
	}
	for k, v := range entry {
		if bv, ok := body[k]; ok && bv.state == v.state {
			st[k] = v
		}
	}
}

// walkAssign handles bindings: getter results start tracking; overwriting
// a tracked variable or storing one into a field stops it.
func (c *poolChecker) walkAssign(st ownMap, lhs, rhs []ast.Expr) {
	pairRHS := func(i int) ast.Expr {
		if len(lhs) == len(rhs) {
			return rhs[i]
		}
		if i == 0 && len(rhs) == 1 {
			return rhs[0] // v, ok := ... / multi-value call
		}
		return nil
	}
	for i, l := range lhs {
		r := pairRHS(i)
		lid, isIdent := l.(*ast.Ident)
		if !isIdent {
			c.scanExpr(st, l)
			if r != nil {
				if v := c.trackedIdent(st, r); v != nil {
					delete(st, v) // stored into a field/element: escapes
					continue
				}
			}
			if r != nil {
				c.scanExpr(st, r)
			}
			continue
		}
		if r == nil {
			continue
		}
		lobj, _ := c.pkg.Info.Defs[lid].(*types.Var)
		if lobj == nil {
			lobj, _ = c.pkg.Info.Uses[lid].(*types.Var)
		}
		if v := c.trackedIdent(st, r); v != nil && v != lobj {
			delete(st, v) // aliased away: conservatively stop tracking
		} else if call, ok := unwrapValue(r).(*ast.CallExpr); ok && c.isGetterCall(call) {
			c.scanCallArgs(st, call)
			if lobj != nil {
				st[lobj] = ownInfo{state: ownOwned, getPos: call.Pos()}
			}
			continue
		} else {
			c.scanExpr(st, r)
		}
		if lobj != nil {
			delete(st, lobj) // plain reassignment: previous tracking ends
		}
	}
}

func (c *poolChecker) isGetterCall(call *ast.CallExpr) bool {
	if isPoolOp(c.pkg.Info, call, "Get") {
		return true
	}
	for _, cn := range c.pf.pass.Graph.Callees(call) {
		if s := c.pf.sums[cn]; s != nil && s.getter {
			return true
		}
	}
	return false
}

// trackedIdent resolves e to a tracked variable, unwrapping parens and
// type assertions.
func (c *poolChecker) trackedIdent(st ownMap, e ast.Expr) *types.Var {
	id, ok := unwrapValue(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := c.pkg.Info.Uses[id].(*types.Var)
	if v == nil {
		return nil
	}
	if _, ok := st[v]; !ok {
		return nil
	}
	return v
}

func (c *poolChecker) release(st ownMap, v *types.Var, pos token.Pos, deferred bool) {
	oi := st[v]
	switch oi.state {
	case ownReleased, ownDeferRel:
		c.reportf(pos, "pooled value %q released twice (previous release at line %d); double Put corrupts the pool", v.Name(), c.line(oi.relPos))
	default:
		oi.relPos = pos
		if deferred {
			oi.state = ownDeferRel
		} else {
			oi.state = ownReleased
		}
		st[v] = oi
	}
}

func (c *poolChecker) walkDefer(st ownMap, call *ast.CallExpr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.escapeMentioned(st, lit)
		c.lits = append(c.lits, lit)
		return
	}
	if v, releasing := c.releaseTarget(st, call); releasing {
		c.release(st, v, call.Pos(), true)
		return
	}
	c.scanExpr(st, call)
}

// releaseTarget reports whether call releases a tracked variable.
func (c *poolChecker) releaseTarget(st ownMap, call *ast.CallExpr) (*types.Var, bool) {
	info := c.pkg.Info
	if isPoolOp(info, call, "Put") && len(call.Args) > 0 {
		if v := c.trackedIdent(st, call.Args[0]); v != nil {
			return v, true
		}
		return nil, false
	}
	if recv := methodValRecv(info, call); recv != nil {
		if v := c.trackedIdent(st, recv); v != nil {
			if rel, _, _ := c.pf.calleeSlotEffect(call, 0); rel {
				return v, true
			}
		}
	}
	base := 0
	if methodValRecv(info, call) != nil {
		base = 1
	}
	for i, arg := range call.Args {
		if v := c.trackedIdent(st, arg); v != nil {
			if rel, _, _ := c.pf.calleeSlotEffect(call, base+i); rel {
				return v, true
			}
		}
	}
	return nil, false
}

// escapeMentioned drops tracking for every state variable mentioned
// anywhere under n (goroutines, closures: the value outlives this walk).
func (c *poolChecker) escapeMentioned(st ownMap, n ast.Node) {
	ast.Inspect(n, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok {
			if v, _ := c.pkg.Info.Uses[id].(*types.Var); v != nil {
				delete(st, v)
			}
		}
		return true
	})
}

// scanExpr walks an expression, applying call effects and use-after-release
// checks. Returns true when the expression statically terminates the path
// (panic).
func (c *poolChecker) scanExpr(st ownMap, e ast.Expr) (terminated bool) {
	if e == nil {
		return false
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		return c.scanCall(st, e)
	case *ast.FuncLit:
		c.escapeMentioned(st, e)
		c.lits = append(c.lits, e)
		return false
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if v := c.trackedIdent(st, el); v != nil {
				delete(st, v)
				continue
			}
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if v := c.trackedIdent(st, kv.Value); v != nil {
					delete(st, v)
					continue
				}
				c.scanExpr(st, kv.Value)
				continue
			}
			c.scanExpr(st, el)
		}
		return false
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if v := c.trackedIdent(st, e.X); v != nil {
				delete(st, v) // address taken: aliasing defeats tracking
				return false
			}
		}
		return c.scanExpr(st, e.X)
	case *ast.ParenExpr:
		return c.scanExpr(st, e.X)
	case *ast.TypeAssertExpr:
		return c.scanExpr(st, e.X)
	case *ast.BinaryExpr:
		t1 := c.scanExpr(st, e.X)
		t2 := c.scanExpr(st, e.Y)
		return t1 || t2
	case *ast.IndexExpr:
		c.scanExpr(st, e.X)
		return c.scanExpr(st, e.Index)
	case *ast.SliceExpr:
		c.scanExpr(st, e.X)
		c.scanExpr(st, e.Low)
		c.scanExpr(st, e.High)
		return false
	case *ast.SelectorExpr:
		// x.f: a field read through the tracked value is a use.
		c.useCheck(st, e.X)
		return false
	case *ast.StarExpr:
		return c.scanExpr(st, e.X)
	case *ast.Ident:
		c.useCheck(st, e)
		return false
	case *ast.KeyValueExpr:
		c.scanExpr(st, e.Key)
		return c.scanExpr(st, e.Value)
	}
	return false
}

// useCheck flags a mention of a released variable.
func (c *poolChecker) useCheck(st ownMap, e ast.Expr) {
	id, ok := unwrapValue(e).(*ast.Ident)
	if !ok {
		if inner, ok := unwrapValue(e).(*ast.SelectorExpr); ok {
			c.useCheck(st, inner.X)
		}
		return
	}
	v, _ := c.pkg.Info.Uses[id].(*types.Var)
	if v == nil {
		return
	}
	if oi, tracked := st[v]; tracked && oi.state == ownReleased {
		c.reportf(id.Pos(), "pooled value %q used after release (released at line %d); the pool may have already handed it to another goroutine", v.Name(), c.line(oi.relPos))
	}
}

// scanCallArgs scans a call's arguments without applying callee effects
// (used under a getter binding, whose args were already consumed).
func (c *poolChecker) scanCallArgs(st ownMap, call *ast.CallExpr) {
	for _, arg := range call.Args {
		if v := c.trackedIdent(st, arg); v != nil {
			// Getter taking a tracked value (GetBufferIterator(buf)):
			// ownership transfers into the new object.
			if _, cap, _ := c.argEffect(st, call, arg); cap {
				delete(st, v)
				continue
			}
			c.useCheck(st, arg)
			continue
		}
		c.scanExpr(st, arg)
	}
}

// argEffect computes the callee effect for one specific argument.
func (c *poolChecker) argEffect(st ownMap, call *ast.CallExpr, arg ast.Expr) (rel, cap, known bool) {
	base := 0
	if methodValRecv(c.pkg.Info, call) != nil {
		base = 1
	}
	for i, a := range call.Args {
		if a == arg {
			return c.pf.calleeSlotEffect(call, base+i)
		}
	}
	return false, false, false
}

// scanCall applies one call's effects to the tracked state.
func (c *poolChecker) scanCall(st ownMap, call *ast.CallExpr) (terminated bool) {
	info := c.pkg.Info

	// Builtins: append captures, panic terminates, the rest are plain uses.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "append":
				for _, arg := range call.Args {
					if v := c.trackedIdent(st, arg); v != nil {
						delete(st, v)
						continue
					}
					c.scanExpr(st, arg)
				}
				return false
			case "panic":
				for _, arg := range call.Args {
					c.scanExpr(st, arg)
				}
				return true
			default:
				for _, arg := range call.Args {
					if v := c.trackedIdent(st, arg); v != nil {
						c.useCheck(st, arg)
						continue
					}
					c.scanExpr(st, arg)
				}
				return false
			}
		}
	}

	// Direct pool.Put.
	if isPoolOp(info, call, "Put") && len(call.Args) > 0 {
		if v := c.trackedIdent(st, call.Args[0]); v != nil {
			c.release(st, v, call.Pos(), false)
			return false
		}
	}

	callees := c.pf.pass.Graph.Callees(call)
	recv := methodValRecv(info, call)
	base := 0
	if recv != nil {
		base = 1
		if v := c.trackedIdent(st, recv); v != nil {
			rel, cap, known := c.pf.calleeSlotEffect(call, 0)
			switch {
			case rel:
				c.release(st, v, call.Pos(), false)
			case cap || (!known && len(callees) == 0):
				delete(st, v) // unknown/capturing method: stop tracking
			default:
				c.useCheck(st, recv)
			}
		} else {
			c.scanExpr(st, recv)
		}
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		c.scanExpr(st, sel.X)
	} else if _, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok {
		c.scanExpr(st, call.Fun)
	}

	for i, arg := range call.Args {
		v := c.trackedIdent(st, arg)
		if v == nil {
			c.scanExpr(st, arg)
			continue
		}
		rel, cap, known := c.pf.calleeSlotEffect(call, base+i)
		switch {
		case rel:
			c.release(st, v, call.Pos(), false)
		case cap || !known:
			delete(st, v) // capturing or unknown callee: ownership leaves
		default:
			c.useCheck(st, arg)
		}
	}
	return false
}
