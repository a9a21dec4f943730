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
// independent scopes). The summaries and the checker read the code only
// through ownScan, the one model of what each construct does to a pooled
// value, and differ only in what they do with its effects.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc:  "every pooled Get must reach a Release/Put on all paths; no use-after-release, no double release",
	Run:  runPoolOwn,
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
	graph *CallGraph
	sums  map[*Node]*poolSummary
}

func runPoolOwn(pass *ModulePass) {
	g := pass.Graph()
	pf := &poolFacts{graph: g, sums: map[*Node]*poolSummary{}}
	g.Fixpoint(func(n *Node) bool {
		if n.Decl.Body == nil {
			return false
		}
		next := pf.summarize(n)
		if summariesEqual(pf.sums[n], next) {
			return false
		}
		pf.sums[n] = next
		return true
	})
	for _, n := range g.Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		c := &poolChecker{pass: pass, reported: map[token.Pos]bool{}}
		c.ownScan = ownScan{pf: pf, info: n.Pkg.Info, sink: c}
		walkFunc(c, n)
	}
}

// paramSlots maps a declaration's receiver and parameters to slots, and
// counts the slots.
func paramSlots(info *types.Info, decl *ast.FuncDecl) (map[*types.Var]int, int) {
	slots := map[*types.Var]int{}
	n := 0
	for _, fl := range []*ast.FieldList{decl.Recv, decl.Type.Params} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				n++ // unnamed parameter still occupies a slot
			}
			for _, name := range f.Names {
				if v, _ := info.Defs[name].(*types.Var); v != nil {
					slots[v] = n
				}
				n++
			}
		}
	}
	return slots, n
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

// calleeSlotEffect is the resolved callees' effect on one argument slot:
// released or captured if any callee's summary says so. With no callee
// summarized (a bodyless function or method), it is effOpaque when the
// call resolved to callees and effEscape when it resolved to none.
func (pf *poolFacts) calleeSlotEffect(call *ast.CallExpr, slot int) ownEffect {
	var eff ownEffect
	known := false
	callees := pf.graph.Callees(call)
	for _, cn := range callees {
		s := pf.sums[cn]
		if s == nil {
			known = known || cn.Decl != nil // summarized as no-effect
			continue
		}
		known = true
		i := min(slot, len(s.releases)-1) // variadic tail
		if i >= 0 && s.releases[i] {
			eff |= effRelease
		}
		if i >= 0 && s.captures[i] {
			eff |= effEscape
		}
	}
	switch {
	case known:
		return eff
	case len(callees) > 0:
		return effOpaque
	}
	return effEscape
}

// isGetter reports whether call returns a pooled value: a sync.Pool Get,
// or a call to a function summarized as a getter.
func (pf *poolFacts) isGetter(info *types.Info, call *ast.CallExpr) bool {
	if isPoolOp(info, call, "Get") {
		return true
	}
	for _, cn := range pf.graph.Callees(call) {
		if s := pf.sums[cn]; s != nil && s.getter {
			return true
		}
	}
	return false
}

// ownEffect is what one construct does to a variable it mentions; no bit
// set is a plain use.
type ownEffect uint8

const (
	// effRelease: a Put, or a callee slot summarized as releasing.
	effRelease ownEffect = 1 << iota
	// effEscape: a store, send, return, append, composite literal,
	// closure, goroutine, &x, or a capturing or unknown callee.
	effEscape
	// effOpaque: the receiver of a method with no summarized body. The
	// checker keeps tracking it (a use); a summary counts it as captured.
	effOpaque
	// effResult: returned to the caller (with effEscape). A function that
	// returns a variable holding a getter's result is a getter.
	effResult
)

// ownSink consumes ownScan's effects: the path-sensitive checker, or the
// summary pass.
type ownSink interface {
	// effect applies eff to the variable id names, at pos; deferred marks
	// a defer statement's call, whose release happens at function end.
	effect(id *ast.Ident, eff ownEffect, pos token.Pos, deferred bool)
	// alias is dst = src (dst nil for _). implicit marks a type switch's
	// clause variable, whose subject was already reported as a use.
	alias(dst *types.Var, src *ast.Ident, implicit bool)
	// bind is dst = getter's result, or any other value if getter is nil.
	// dst nil with a getter: the function returns the getter's result.
	bind(dst *types.Var, getter *ast.CallExpr)
	// exit is a return: an explicit one, or a body's closing brace.
	exit(pos token.Pos)
}

// ownScan is poolown's one interpretation of what each construct does to a
// pooled value (DESIGN.md §4.14). The checker and the summary pass differ
// only in what their sinks do with its effects.
type ownScan struct {
	pf   *poolFacts
	info *types.Info
	sink ownSink
}

func (o *ownScan) varOf(id *ast.Ident) *types.Var {
	v, _ := o.info.Uses[id].(*types.Var)
	return v
}

// scan applies one node the shared walker hands over.
func (o *ownScan) scan(n ast.Node) {
	switch s := n.(type) {
	case ast.Expr:
		o.expr(s)
	case *ast.AssignStmt:
		o.assign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					o.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.ExprStmt:
		o.expr(s.X)
	case *ast.IncDecStmt:
		o.expr(s.X)
	case *ast.DeferStmt:
		o.call(s.Call, true)
	case *ast.GoStmt:
		o.escapeAll(s.Call)
	case *ast.SendStmt:
		o.expr(s.Chan)
		o.handOff(s.Value, effEscape) // ownership crosses the channel
	case *ast.TypeSwitchStmt:
		o.guard(s)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if call, ok := unwrapValue(res).(*ast.CallExpr); ok && o.pf.isGetter(o.info, call) {
				o.call(call, false)
				o.sink.bind(nil, call)
			} else {
				o.handOff(res, effEscape|effResult)
			}
		}
		o.sink.exit(s.Pos())
	}
}

// assign handles bindings. A store into a field or element hands the value
// off; a variable receives a copy of another, a getter's result, or any
// other value.
func (o *ownScan) assign(lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		var r ast.Expr
		if len(lhs) == len(rhs) {
			r = rhs[i]
		} else if i == 0 {
			r = rhs[0] // v, ok := ... / multi-value call
		}
		lid, isIdent := l.(*ast.Ident)
		if !isIdent {
			o.expr(l)
			o.handOff(r, effEscape)
			continue
		}
		if r == nil {
			continue
		}
		dst, _ := o.info.Defs[lid].(*types.Var)
		if dst == nil {
			dst, _ = o.info.Uses[lid].(*types.Var)
		}
		switch v := unwrapValue(r).(type) {
		case *ast.Ident:
			o.sink.alias(dst, v, false)
			continue
		case *ast.CallExpr:
			if o.pf.isGetter(o.info, v) {
				o.call(v, false)
				if dst != nil {
					o.sink.bind(dst, v)
				}
				continue
			}
		}
		o.expr(r)
		o.sink.bind(dst, nil)
	}
}

// guard is a type switch's header: its subject is used, and each clause's
// variable aliases it (chunkenc.ReleaseIterator's Releasable dispatch).
func (o *ownScan) guard(s *ast.TypeSwitchStmt) {
	var x ast.Expr
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		x = a.Rhs[0]
	case *ast.ExprStmt:
		x = a.X
	}
	id, ok := unwrapValue(x).(*ast.Ident)
	if !ok {
		o.expr(x)
		return
	}
	o.sink.effect(id, 0, id.Pos(), false)
	for _, cl := range s.Body.List {
		if impl, _ := o.info.Implicits[cl].(*types.Var); impl != nil {
			o.sink.alias(impl, id, true)
		}
	}
}

// handOff is a value leaving this function's hands with eff; anything but
// a variable is scanned.
func (o *ownScan) handOff(e ast.Expr, eff ownEffect) {
	if id, ok := unwrapValue(e).(*ast.Ident); ok {
		o.sink.effect(id, eff, id.Pos(), false)
		return
	}
	o.expr(e)
}

// escapeAll lets every variable mentioned under n escape: a closure or a
// goroutine may outlive the function.
func (o *ownScan) escapeAll(n ast.Node) {
	ast.Inspect(n, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok {
			o.sink.effect(id, effEscape, id.Pos(), false)
		}
		return true
	})
}

// expr scans an expression: the calls in it, and the variables it uses.
func (o *ownScan) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		o.call(e, false)
	case *ast.FuncLit:
		o.escapeAll(e)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			o.handOff(el, effEscape)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			o.handOff(e.X, effEscape) // address taken
		} else {
			o.expr(e.X)
		}
	case *ast.ParenExpr:
		o.expr(e.X)
	case *ast.TypeAssertExpr:
		o.expr(e.X)
	case *ast.StarExpr:
		o.expr(e.X)
	case *ast.SelectorExpr:
		o.expr(e.X)
	case *ast.BinaryExpr:
		o.expr(e.X)
		o.expr(e.Y)
	case *ast.IndexExpr:
		o.expr(e.X)
		o.expr(e.Index)
	case *ast.SliceExpr:
		o.expr(e.X)
		o.expr(e.Low)
		o.expr(e.High)
	case *ast.Ident:
		o.sink.effect(e, 0, e.Pos(), false)
	}
}

// call applies one call's effects: a builtin's, a Put's, or the resolved
// callees' summaries on the receiver and each argument.
func (o *ownScan) call(call *ast.CallExpr, deferred bool) {
	if name, ok := builtinName(o.info, call); ok {
		eff := ownEffect(0)
		if name == "append" {
			eff = effEscape
		}
		for _, arg := range call.Args {
			o.handOff(arg, eff)
		}
		return
	}
	if isPoolOp(o.info, call, "Put") && len(call.Args) > 0 {
		if id, ok := unwrapValue(call.Args[0]).(*ast.Ident); ok {
			o.sink.effect(id, effRelease, call.Pos(), deferred)
			return
		}
	}
	base := 0
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s := o.info.Selections[fun]; s != nil && s.Kind() == types.MethodVal {
			base = 1 // the receiver is slot 0
		}
		if recv, ok := unwrapValue(fun.X).(*ast.Ident); ok && base == 1 {
			o.sink.effect(recv, o.pf.calleeSlotEffect(call, 0), call.Pos(), deferred)
		} else {
			o.expr(fun.X)
		}
	case *ast.Ident:
	default:
		o.expr(call.Fun)
	}
	for i, arg := range call.Args {
		id, ok := unwrapValue(arg).(*ast.Ident)
		if !ok {
			o.expr(arg)
			continue
		}
		eff := o.pf.calleeSlotEffect(call, base+i)
		if eff == effOpaque {
			eff = effEscape // an argument to an unknown callee may escape
		}
		o.sink.effect(id, eff, call.Pos(), deferred)
	}
}

// poolSummarizer builds one function's poolSummary: the may-union of
// ownScan's effects over its body, on its receiver and parameters (by
// slot) and every variable that aliases one. Paths do not matter, so the
// walker's state is only whether the body is the declaration's own: a
// function literal's body adds nothing, since mentioning a parameter in
// the literal already captured it.
type poolSummarizer struct {
	ownScan
	sum     *poolSummary
	slots   map[*types.Var]int  // parameters and their aliases
	getVals map[*types.Var]bool // variables holding a getter's result
	started bool
}

// summarize computes one function's poolSummary from its body and the
// current summaries of its callees.
func (pf *poolFacts) summarize(n *Node) *poolSummary {
	slots, count := paramSlots(n.Pkg.Info, n.Decl)
	s := &poolSummarizer{
		sum:     &poolSummary{releases: make([]bool, count), captures: make([]bool, count)},
		slots:   slots,
		getVals: map[*types.Var]bool{},
	}
	s.ownScan = ownScan{pf: pf, info: n.Pkg.Info, sink: s}
	walkFunc(s, n)
	return s.sum
}

func (s *poolSummarizer) body(bool) bool {
	own := !s.started
	s.started = true
	return own
}

func (s *poolSummarizer) clone(own bool) bool { return own }

func (s *poolSummarizer) join(own, _ bool) bool { return own }

func (s *poolSummarizer) transfer(own bool, n ast.Node) bool {
	if own {
		s.scan(n)
	}
	return own
}

func (s *poolSummarizer) effect(id *ast.Ident, eff ownEffect, _ token.Pos, _ bool) {
	v := s.varOf(id)
	s.sum.getter = s.sum.getter || eff&effResult != 0 && s.getVals[v]
	if slot, ok := s.slots[v]; ok {
		s.sum.releases[slot] = s.sum.releases[slot] || eff&effRelease != 0
		s.sum.captures[slot] = s.sum.captures[slot] || eff&(effEscape|effOpaque) != 0
	}
}

// alias follows the copy: dst stands for whatever src stands for.
func (s *poolSummarizer) alias(dst *types.Var, src *ast.Ident, implicit bool) {
	if dst == nil {
		return
	}
	v := s.varOf(src)
	if slot, ok := s.slots[v]; ok {
		s.slots[dst] = slot
	}
	if s.getVals[v] && !implicit {
		s.getVals[dst] = true
	}
}

func (s *poolSummarizer) bind(dst *types.Var, getter *ast.CallExpr) {
	switch {
	case getter == nil:
	case dst == nil:
		s.sum.getter = true
	default:
		s.getVals[dst] = true
	}
}

func (s *poolSummarizer) exit(token.Pos) {}

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

// poolChecker applies ownScan's effects, along the paths walkFunc models,
// to the locals bound from getter calls: each is owned until released, and
// tracking stops when it escapes, is copied, or paths disagree about it.
type poolChecker struct {
	ownScan
	pass     *ModulePass
	st       ownMap // the path being walked
	reported map[token.Pos]bool
}

func (c *poolChecker) reportf(pos token.Pos, format string, args ...any) {
	if !c.reported[pos] {
		c.reported[pos] = true
		c.pass.Reportf(pos, format, args...)
	}
}

func (c *poolChecker) line(pos token.Pos) int {
	return c.pass.Fset.Position(pos).Line
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

func (c *poolChecker) transfer(st ownMap, n ast.Node) ownMap {
	c.st = st
	c.scan(n)
	return st
}

func (c *poolChecker) effect(id *ast.Ident, eff ownEffect, pos token.Pos, deferred bool) {
	v := c.varOf(id)
	oi, tracked := c.st[v]
	switch {
	case !tracked:
	case eff&effRelease != 0 && oi.state != ownOwned:
		c.reportf(pos, "pooled value %q released twice (previous release at line %d); double Put corrupts the pool", v.Name(), c.line(oi.relPos))
	case eff&effRelease != 0:
		oi.state, oi.relPos = ownReleased, pos
		if deferred {
			oi.state = ownDeferRel
		}
		c.st[v] = oi
	case eff&effEscape != 0:
		delete(c.st, v) // ownership leaves: tracking stops
	case oi.state == ownReleased:
		c.reportf(id.Pos(), "pooled value %q used after release (released at line %d); the pool may have already handed it to another goroutine", v.Name(), c.line(oi.relPos))
	}
}

// alias stops tracking a copied variable, since two names for one pooled
// value defeat per-variable tracking; a type switch's clause variables
// are not followed.
func (c *poolChecker) alias(dst *types.Var, src *ast.Ident, implicit bool) {
	if implicit {
		return
	}
	v := c.varOf(src)
	if _, tracked := c.st[v]; tracked && v != dst {
		delete(c.st, v)
	} else {
		c.effect(src, 0, src.Pos(), false)
	}
	c.bind(dst, nil)
}

func (c *poolChecker) bind(dst *types.Var, getter *ast.CallExpr) {
	switch {
	case dst == nil:
	case getter != nil:
		c.st[dst] = ownInfo{state: ownOwned, getPos: getter.Pos()}
	default:
		delete(c.st, dst) // plain reassignment: previous tracking ends
	}
}

// exit reports every still-owned pooled value.
func (c *poolChecker) exit(pos token.Pos) {
	for v, oi := range c.st {
		if oi.state == ownOwned {
			c.reportf(pos, "pooled value %q (obtained at line %d) is not released on this path; call its Release/Put (or hand ownership off) on every return", v.Name(), c.line(oi.getPos))
		}
	}
}
