package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// flow is what a path-sensitive analyzer supplies to the shared statement
// walker (DESIGN.md §4.14): its state operations, and a transfer for each
// node the walker does not take apart itself.
type flow[S any] interface {
	// body is the state at the top of a declaration or function literal;
	// concurrent marks a body that runs on a goroutine its enclosing body
	// spawned.
	body(concurrent bool) S
	clone(S) S
	// join merges the states of two paths that meet: after a branch, or
	// after a loop, where the paths are the loop's entry (no iteration)
	// and each way out of its body. It may reuse a.
	join(a, b S) S
	// transfer applies one simple statement, expression, or return, defer
	// or go statement, or a type switch's guard: given the TypeSwitchStmt,
	// it applies only s.Assign, whose clause variables are in each clause's
	// Implicits. Function literals inside it are walked separately, so
	// transfer must not look into their bodies.
	transfer(S, ast.Node) S
}

// walkFunc walks n's body, and every function literal in it as an
// independent scope, under f.
//
// Control-flow rules, the same for every analyzer: if/else, switch, type
// switch and select clauses are branches from one state; a switch without
// a default also joins the state that matched no clause. A loop body is
// walked once. return, panic, goto and fallthrough end a path; break and
// continue end it too but deliver its state to their (possibly labeled)
// target, so a construct whose every path ends terminates, and a `for`
// without a condition terminates unless something breaks out of it.
// Falling off the end of a body is a return at its closing brace.
func walkFunc[S any](f flow[S], n *Node) {
	(&walker[S]{f: f, info: n.Pkg.Info, allLits: n.Lits}).body(n.Decl.Body, false)
}

type walker[S any] struct {
	f          flow[S]
	info       *types.Info
	allLits    []*ast.FuncLit // the declaration's, in source order
	concurrent bool
	targets    []target[S]    // enclosing breakable statements, innermost last
	end        ast.ReturnStmt // the implicit return at a body's closing brace
}

// target collects the states that break or continue to one statement.
type target[S any] struct {
	label             string
	loop              bool
	breaks, continues paths[S]
}

// paths is the join of the states of the paths that reach one point; live
// is false while none has.
type paths[S any] struct {
	st   S
	live bool
}

func (w *walker[S]) add(p *paths[S], st S) {
	if p.live {
		p.st = w.f.join(p.st, st)
	} else {
		p.st, p.live = st, true
	}
}

func (w *walker[S]) body(b *ast.BlockStmt, concurrent bool) {
	outerConc, outerTargets := w.concurrent, w.targets
	w.concurrent, w.targets = concurrent, nil
	if st, term := w.stmts(b.List, w.f.body(concurrent)); !term {
		w.end.Return = b.Rbrace
		w.f.transfer(st, &w.end)
	}
	w.concurrent, w.targets = outerConc, outerTargets
}

// node transfers n, then walks the function literals inside it.
func (w *walker[S]) node(n ast.Node, st S) S {
	if n == nil {
		return st
	}
	st = w.f.transfer(st, n)
	w.lits(n, w.concurrent)
	return st
}

// lits walks the function literals inside n, each nested one from within
// its enclosing literal's body.
func (w *walker[S]) lits(n ast.Node, concurrent bool) {
	lits := w.allLits
	if len(lits) == 0 {
		return
	}
	i := sort.Search(len(lits), func(i int) bool { return lits[i].Pos() >= n.Pos() })
	for end := token.NoPos; i < len(lits) && lits[i].Pos() < n.End(); i++ {
		if lits[i].Pos() >= end {
			w.body(lits[i].Body, concurrent)
			end = lits[i].End()
		}
	}
}

func (w *walker[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var term bool
		if st, term = w.stmt(s, st, ""); term {
			return st, true
		}
	}
	return st, false
}

func (w *walker[S]) stmt(s ast.Stmt, st S, label string) (S, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st, s.Label.Name)
	case *ast.IfStmt:
		st = w.node(s.Cond, w.node(s.Init, st))
		var out paths[S]
		if then, term := w.stmts(s.Body.List, w.f.clone(st)); !term {
			w.add(&out, then)
		}
		if s.Else == nil {
			w.add(&out, st)
		} else if els, term := w.stmt(s.Else, st, ""); !term {
			w.add(&out, els)
		}
		return out.st, !out.live
	case *ast.ForStmt:
		st = w.node(s.Cond, w.node(s.Init, st))
		return w.loop(label, st, s.Body, s.Post, s.Cond == nil)
	case *ast.RangeStmt:
		return w.loop(label, w.node(s.X, st), s.Body, nil, false)
	case *ast.SwitchStmt:
		st = w.node(s.Tag, w.node(s.Init, st))
		return w.clauses(label, st, s.Body.List, false)
	case *ast.TypeSwitchStmt:
		// The guard, whose clause variables the clauses' Implicits hold.
		st = w.f.transfer(w.node(s.Init, st), s)
		w.lits(s.Assign, w.concurrent)
		return w.clauses(label, st, s.Body.List, false)
	case *ast.SelectStmt:
		return w.clauses(label, st, s.Body.List, true)
	case *ast.BranchStmt:
		w.branch(s, st)
		return st, true
	case *ast.ReturnStmt:
		return w.node(s, st), true
	case *ast.GoStmt:
		st = w.f.transfer(st, s)
		w.lits(s, true)
		return st, false
	case *ast.ExprStmt:
		return w.node(s, st), w.isPanic(s.X)
	default: // assign, declaration, send, inc/dec, defer, empty
		return w.node(s, st), false
	}
}

func (w *walker[S]) loop(label string, entry S, body *ast.BlockStmt, post ast.Stmt, infinite bool) (S, bool) {
	w.targets = append(w.targets, target[S]{label: label, loop: true})
	end, term := w.stmts(body.List, w.f.clone(entry))
	t := w.pop()
	if !term {
		w.add(&t.continues, end)
	}
	if infinite && !t.breaks.live {
		return entry, true
	}
	out := paths[S]{st: entry, live: true}
	if t.continues.live {
		w.add(&out, w.node(post, t.continues.st))
	}
	if t.breaks.live {
		w.add(&out, t.breaks.st)
	}
	return out.st, false
}

// clauses walks switch and select clauses as branches from entry. A select
// always runs one clause; a switch does only when it has a default.
func (w *walker[S]) clauses(label string, entry S, list []ast.Stmt, exhaustive bool) (S, bool) {
	w.targets = append(w.targets, target[S]{label: label})
	var out paths[S]
	for _, cl := range list {
		st := w.f.clone(entry)
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				st = w.node(e, st)
			}
			body, exhaustive = cl.Body, exhaustive || cl.List == nil
		case *ast.CommClause:
			st, body = w.node(cl.Comm, st), cl.Body
		}
		if st, term := w.stmts(body, st); !term {
			w.add(&out, st)
		}
	}
	if t := w.pop(); t.breaks.live {
		w.add(&out, t.breaks.st)
	}
	if !exhaustive {
		w.add(&out, entry)
	}
	return out.st, !out.live
}

func (w *walker[S]) pop() target[S] {
	t := w.targets[len(w.targets)-1]
	w.targets = w.targets[:len(w.targets)-1]
	return t
}

// branch delivers a break or continue state to its target; goto and
// fallthrough just end the path.
func (w *walker[S]) branch(s *ast.BranchStmt, st S) {
	if s.Tok != token.BREAK && s.Tok != token.CONTINUE {
		return
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := &w.targets[i]
		if s.Label != nil && s.Label.Name != t.label || s.Label == nil && s.Tok == token.CONTINUE && !t.loop {
			continue
		}
		if s.Tok == token.BREAK {
			w.add(&t.breaks, st)
		} else {
			w.add(&t.continues, st)
		}
		return
	}
}

// isPanic reports whether e calls the panic builtin.
func (w *walker[S]) isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := w.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
