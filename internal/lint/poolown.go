package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
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
// only reports what it can prove on the path structure the shared walker
// models (walkFunc: branch joins, loop bodies once, function literals as
// independent scopes).
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
	if a == nil || b == nil {
		return a == b
	}
	return a.getter == b.getter && slices.Equal(a.releases, b.releases) && slices.Equal(a.captures, b.captures)
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
		walkFunc(c, n)
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

// isGetter reports whether call returns a pooled value: a sync.Pool Get,
// or a call to a function summarized as a getter.
func (pf *poolFacts) isGetter(info *types.Info, call *ast.CallExpr) bool {
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
		_, tracked := aliases[obj]
		return obj, tracked
	}
	// isGetVal: e is a getter call or a local holding one's result.
	isGetVal := func(e ast.Expr) bool {
		switch e := unwrapValue(e).(type) {
		case *ast.CallExpr:
			return pf.isGetter(info, e)
		case *ast.Ident:
			return getVals[info.Uses[e]]
		}
		return false
	}
	// captureMentioned: every parameter named under n escapes.
	captureMentioned := func(n ast.Node) {
		ast.Inspect(n, func(e ast.Node) bool {
			if id, ok := e.(*ast.Ident); ok {
				markSlot(info.Uses[id], false, true)
			}
			return true
		})
	}

	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
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
					obj, tracked := aliasOf(rhs)
					lid, ok := lhs.(*ast.Ident)
					if !ok {
						// Storing into a field/element captures any
						// aliased RHS.
						if tracked {
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
					if tracked {
						aliases[lobj] = aliases[obj]
					}
					if isGetVal(rhs) {
						getVals[lobj] = true
					}
				}
			}
		case *ast.TypeSwitchStmt:
			// switch r := p.(type): each clause's implicit r aliases p.
			var subject ast.Expr
			switch a := nd.Assign.(type) {
			case *ast.AssignStmt:
				subject = a.Rhs[0]
			case *ast.ExprStmt:
				subject = a.X
			}
			if obj, tracked := aliasOf(subject); tracked {
				for _, stmt := range nd.Body.List {
					if impl := info.Implicits[stmt]; impl != nil {
						aliases[impl] = aliases[obj]
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				if obj, tracked := aliasOf(res); tracked {
					markSlot(obj, false, true)
				}
				sum.getter = sum.getter || isGetVal(res)
			}
		case *ast.CallExpr:
			if isPoolOp(info, nd, "Put") && len(nd.Args) > 0 {
				if obj, tracked := aliasOf(nd.Args[0]); tracked {
					markSlot(obj, true, false)
				}
				return true
			}
			base := 0
			if recv := methodValRecv(info, nd); recv != nil {
				base = 1
				if obj, tracked := aliasOf(recv); tracked {
					rel, cap, known := pf.calleeSlotEffect(nd, 0)
					markSlot(obj, rel, cap || !known) // unknown method on a param: assume escape
				}
			}
			builtin := ""
			if id, ok := ast.Unparen(nd.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					builtin = b.Name()
				}
			}
			for i, arg := range nd.Args {
				obj, tracked := aliasOf(arg)
				switch {
				case !tracked:
				case builtin != "":
					markSlot(obj, false, builtin == "append")
				default:
					rel, cap, known := pf.calleeSlotEffect(nd, base+i)
					markSlot(obj, rel, cap || !known) // unknown callee: the parameter may escape
				}
			}
		case *ast.CompositeLit:
			for _, el := range nd.Elts {
				captureMentioned(el)
			}
		case *ast.SendStmt:
			if obj, tracked := aliasOf(nd.Value); tracked {
				markSlot(obj, false, true)
			}
		case *ast.FuncLit:
			captureMentioned(nd.Body)
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

type poolChecker struct {
	pf       *poolFacts
	pkg      *Package
	reported map[token.Pos]bool
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

// leakCheck reports every still-owned pooled value at an exit point.
func (c *poolChecker) leakCheck(st ownMap, pos token.Pos) {
	for v, oi := range st {
		if oi.state == ownOwned {
			c.reportf(pos, "pooled value %q (obtained at line %d) is not released on this path; call its Release/Put (or hand ownership off) on every return", v.Name(), c.line(oi.getPos))
		}
	}
}

func (c *poolChecker) body(bool) ownMap { return ownMap{} }

func (c *poolChecker) clone(m ownMap) ownMap { return maps.Clone(m) }

// join keeps a variable's state only when every path agrees on it;
// disagreement drops tracking (no false positives from path-insensitive
// joins). After a loop the paths are the entry and the body's exits, so a
// loop drops any variable the body changed (it is walked once, not to a
// fixpoint) and every variable the body declared.
func (c *poolChecker) join(a, b ownMap) ownMap {
	for k, v := range a {
		if o, ok := b[k]; !ok || o.state != v.state {
			delete(a, k)
		}
	}
	return a
}

// transfer applies one node's ownership effects.
func (c *poolChecker) transfer(st ownMap, n ast.Node) ownMap {
	switch s := n.(type) {
	case ast.Expr:
		c.scanExpr(st, s)
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
		c.scanExpr(st, s.X)
	case *ast.IncDecStmt:
		c.scanExpr(st, s.X)
	case *ast.DeferStmt:
		c.scanCall(st, s.Call, true)
	case *ast.GoStmt:
		c.escapeMentioned(st, s.Call)
	case *ast.SendStmt:
		c.scanExpr(st, s.Chan)
		c.handOff(st, s.Value) // ownership crosses the channel
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			c.handOff(st, res) // returning the value hands ownership out
		}
		c.leakCheck(st, s.Pos())
	}
	return st
}

// handOff is a value leaving this function's hands — stored, sent,
// returned, appended: a tracked variable stops being tracked; anything
// else is scanned.
func (c *poolChecker) handOff(st ownMap, e ast.Expr) {
	if v := c.trackedIdent(st, e); v != nil {
		delete(st, v)
		return
	}
	c.scanExpr(st, e)
}

// walkAssign handles bindings: getter results start tracking; overwriting
// a tracked variable or storing one into a field stops it.
func (c *poolChecker) walkAssign(st ownMap, lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		var r ast.Expr
		if len(lhs) == len(rhs) {
			r = rhs[i]
		} else if i == 0 {
			r = rhs[0] // v, ok := ... / multi-value call
		}
		lid, isIdent := l.(*ast.Ident)
		if !isIdent {
			c.scanExpr(st, l)
			c.handOff(st, r) // stored into a field/element: escapes
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
		} else if call, ok := unwrapValue(r).(*ast.CallExpr); ok && c.pf.isGetter(c.pkg.Info, call) {
			c.scanCall(st, call, false)
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

// trackedIdent resolves e to a tracked variable, unwrapping parens and
// type assertions.
func (c *poolChecker) trackedIdent(st ownMap, e ast.Expr) *types.Var {
	id, ok := unwrapValue(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := c.pkg.Info.Uses[id].(*types.Var)
	if _, tracked := st[v]; !tracked {
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
// checks.
func (c *poolChecker) scanExpr(st ownMap, e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		c.scanCall(st, e, false)
	case *ast.FuncLit:
		c.escapeMentioned(st, e)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			c.handOff(st, el)
		}
	case *ast.UnaryExpr:
		if v := c.trackedIdent(st, e.X); v != nil && e.Op == token.AND {
			delete(st, v) // address taken: aliasing defeats tracking
			return
		}
		c.scanExpr(st, e.X)
	case *ast.ParenExpr:
		c.scanExpr(st, e.X)
	case *ast.TypeAssertExpr:
		c.scanExpr(st, e.X)
	case *ast.BinaryExpr:
		c.scanExpr(st, e.X)
		c.scanExpr(st, e.Y)
	case *ast.IndexExpr:
		c.scanExpr(st, e.X)
		c.scanExpr(st, e.Index)
	case *ast.SliceExpr:
		c.scanExpr(st, e.X)
		c.scanExpr(st, e.Low)
		c.scanExpr(st, e.High)
	case *ast.SelectorExpr:
		// x.f: a field read through the tracked value is a use.
		c.useCheck(st, e.X)
	case *ast.StarExpr:
		c.scanExpr(st, e.X)
	case *ast.Ident:
		c.useCheck(st, e)
	case *ast.KeyValueExpr:
		c.scanExpr(st, e.Key)
		c.scanExpr(st, e.Value)
	}
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
	if oi, tracked := st[v]; tracked && oi.state == ownReleased {
		c.reportf(id.Pos(), "pooled value %q used after release (released at line %d); the pool may have already handed it to another goroutine", v.Name(), c.line(oi.relPos))
	}
}

// scanCall applies one call's effects to the tracked state; a deferred
// call's releases happen at function end.
func (c *poolChecker) scanCall(st ownMap, call *ast.CallExpr, deferred bool) {
	info := c.pkg.Info

	// Builtins: append captures, the rest are plain uses.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			for _, arg := range call.Args {
				if b.Name() == "append" {
					c.handOff(st, arg)
				} else {
					c.scanExpr(st, arg)
				}
			}
			return
		}
	}

	// Direct pool.Put.
	if isPoolOp(info, call, "Put") && len(call.Args) > 0 {
		if v := c.trackedIdent(st, call.Args[0]); v != nil {
			c.release(st, v, call.Pos(), deferred)
			return
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
				c.release(st, v, call.Pos(), deferred)
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
			c.release(st, v, call.Pos(), deferred)
		case cap || !known:
			delete(st, v) // capturing or unknown callee: ownership leaves
		default:
			c.useCheck(st, arg)
		}
	}
}
