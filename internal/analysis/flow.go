package analysis

// flow.go is the shared intra-procedural def-use/escape pass behind
// timerown and noalloc's append-growth check. It walks one function body
// in execution order, carrying a client-defined abstract fact per tracked
// storage location (a local variable, a parameter, or a one-level field
// of one, e.g. s.rtoTimer). Control flow is approximated the standard
// way:
//
//   - branches (if/switch/select) analyze each arm on a clone of the
//     incoming state and join the results with the client's lattice
//     Join at the merge point;
//   - loops run the body twice — the second pass starts from the join
//     of the entry state and the first pass's exit, which is enough to
//     see facts that one iteration establishes and the next violates
//     (use-after-transfer across iterations) without a full fixpoint;
//   - function literals are walked with a fresh empty state: a closure
//     runs at an unknown time, so facts about captured variables are
//     neither trusted inside it nor leaked back out.
//
// Because loop bodies are walked twice, clients must tolerate seeing
// the same syntactic event more than once; RunAudit deduplicates identical
// diagnostics, so Reportf from a hook is safe.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Ref identifies a trackable storage location: a variable, or one
// field of a variable (Base.Field). Deeper paths (a.b.c) collapse to
// their outermost field so that aliasing stays conservative.
type Ref struct {
	Base  types.Object
	Field types.Object // nil when the Ref is the variable itself
}

// RefOf resolves an expression to a Ref. The second result is false
// for anything that is not a variable or variable.field path (calls,
// indexes, literals, package selectors).
func RefOf(info *types.Info, e ast.Expr) (Ref, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			return Ref{Base: v}, true
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return Ref{}, false
		}
		base := ast.Unparen(x.X)
		if star, ok := base.(*ast.StarExpr); ok {
			base = ast.Unparen(star.X)
		}
		id, ok := base.(*ast.Ident)
		if !ok {
			return Ref{}, false
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			return Ref{Base: v, Field: sel.Obj()}, true
		}
	case *ast.StarExpr:
		return RefOf(info, x.X)
	}
	return Ref{}, false
}

// FlowState carries one abstract fact (a small client-defined integer,
// zero meaning "no information") per Ref.
type FlowState map[Ref]int

// Get returns the fact for r (zero when untracked).
func (s FlowState) Get(r Ref) int { return s[r] }

// Set records a fact for r; setting zero forgets the Ref.
func (s FlowState) Set(r Ref, fact int) {
	if fact == 0 {
		delete(s, r)
		return
	}
	s[r] = fact
}

func (s FlowState) clone() FlowState {
	out := make(FlowState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// UseCtx tells the Use hook where a read occurs, so clients can phrase
// escape-specific diagnostics.
type UseCtx int

const (
	// UseRead is a plain rvalue read (expression operand, call callee).
	UseRead UseCtx = iota
	// UseStore is a read whose value is stored into a field, map, or
	// slice element — the value escapes the local frame.
	UseStore
	// UseReturn is a read inside a return statement.
	UseReturn
	// UseArg is a read inside a (non-claimed) call argument.
	UseArg
)

// FlowHooks are the client callbacks. Any hook may be nil except Join.
type FlowHooks struct {
	// Join merges the facts of one Ref at a control-flow merge point.
	// It must be commutative and treat 0 as "no information".
	Join func(a, b int) int
	// PreCall runs before a call's arguments are walked. Expressions it
	// returns are claimed: the generic Use hook is not fired for them
	// (the client handles them itself in PostCall).
	PreCall func(call *ast.CallExpr, st FlowState) (claimed []ast.Expr)
	// PostCall runs after the call's callee and arguments were walked.
	PostCall func(call *ast.CallExpr, st FlowState)
	// Assign runs once per assigned element, after the right-hand sides
	// were walked. rhs is the paired expression (the shared call in a
	// tuple assignment; nil for zero-value var declarations and ++/--).
	Assign func(lhs, rhs ast.Expr, tok token.Token, st FlowState)
	// Use fires for every rvalue read of a trackable Ref.
	Use func(e ast.Expr, r Ref, ctx UseCtx, st FlowState)
}

// WalkFlow runs the def-use pass over body starting from st (which may
// be nil) and returns the exit state.
func WalkFlow(info *types.Info, body *ast.BlockStmt, st FlowState, hooks FlowHooks) FlowState {
	if st == nil {
		st = make(FlowState)
	}
	w := &flowWalker{info: info, hooks: hooks, claimed: make(map[ast.Expr]bool)}
	w.stmt(body, st)
	return st
}

type flowWalker struct {
	info    *types.Info
	hooks   FlowHooks
	claimed map[ast.Expr]bool
}

// join merges b into a element-wise and returns a.
func (w *flowWalker) join(a, b FlowState) FlowState {
	for r, fb := range b {
		if fa := a[r]; fa != fb {
			a.Set(r, w.hooks.Join(fa, fb))
		}
	}
	for r, fa := range a {
		if _, ok := b[r]; !ok {
			a.Set(r, w.hooks.Join(fa, 0))
		}
	}
	return a
}

func (w *flowWalker) stmt(s ast.Stmt, st FlowState) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.stmt(sub, st)
		}
	case *ast.ExprStmt:
		w.expr(s.X, st, UseRead)
	case *ast.AssignStmt:
		w.assign(s, st)
	case *ast.IncDecStmt:
		if w.hooks.Assign != nil {
			w.hooks.Assign(s.X, nil, s.Tok, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.expr(v, st, UseRead)
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 {
						rhs = vs.Values[0]
					}
					if w.hooks.Assign != nil {
						w.hooks.Assign(name, rhs, token.DEFINE, st)
					}
				}
			}
		}
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st, UseRead)
		thenSt := st.clone()
		w.stmt(s.Body, thenSt)
		elseSt := st.clone()
		w.stmt(s.Else, elseSt)
		w.join(thenSt, elseSt)
		replace(st, thenSt)
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st, UseRead)
		w.loopBody(st, func(inner FlowState) {
			w.stmt(s.Body, inner)
			w.stmt(s.Post, inner)
			w.expr(s.Cond, inner, UseRead)
		})
	case *ast.RangeStmt:
		w.expr(s.X, st, UseRead)
		w.loopBody(st, func(inner FlowState) { w.stmt(s.Body, inner) })
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		w.expr(s.Tag, st, UseRead)
		w.branches(st, s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.branches(st, s.Body)
	case *ast.SelectStmt:
		w.branches(st, s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e, st, UseRead)
		}
		for _, sub := range s.Body {
			w.stmt(sub, st)
		}
	case *ast.CommClause:
		w.stmt(s.Comm, st)
		for _, sub := range s.Body {
			w.stmt(sub, st)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, st, UseReturn)
		}
	case *ast.SendStmt:
		w.expr(s.Chan, st, UseRead)
		w.expr(s.Value, st, UseStore)
	case *ast.DeferStmt:
		w.expr(s.Call, st, UseRead)
	case *ast.GoStmt:
		w.expr(s.Call, st, UseRead)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// break/continue/goto: joins are approximated at loop level.
	}
}

// loopBody walks a loop body twice: once from the entry state, once
// from entry ⊔ first-pass-exit, then merges everything into st (the
// loop may also run zero times).
func (w *flowWalker) loopBody(st FlowState, walk func(FlowState)) {
	first := st.clone()
	walk(first)
	second := w.join(st.clone(), first)
	walk(second)
	w.join(st, w.join(first, second))
}

// branches analyzes each clause of a switch/select body independently
// and joins the results (including the fall-through "no clause ran"
// state, a sound default even when a default clause exists).
func (w *flowWalker) branches(st FlowState, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	merged := st.clone()
	for _, clause := range body.List {
		cs := st.clone()
		w.stmt(clause, cs)
		w.join(merged, cs)
	}
	replace(st, merged)
}

func replace(dst, src FlowState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func (w *flowWalker) assign(s *ast.AssignStmt, st FlowState) {
	for i, rhs := range s.Rhs {
		ctx := UseRead
		// A read feeding a field/map/slice store escapes.
		if len(s.Lhs) == len(s.Rhs) && escapesStore(w.info, s.Lhs[i]) {
			ctx = UseStore
		}
		w.expr(rhs, st, ctx)
	}
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Lhs) == len(s.Rhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		// Index/selector components of a non-Ref lvalue are reads
		// (m[k] = v reads k), walked before the Assign hook fires.
		if _, ok := RefOf(w.info, lhs); !ok {
			switch x := ast.Unparen(lhs).(type) {
			case *ast.IndexExpr:
				w.expr(x.X, st, UseRead)
				w.expr(x.Index, st, UseRead)
			case *ast.SelectorExpr:
				w.expr(x.X, st, UseRead)
			case *ast.StarExpr:
				w.expr(x.X, st, UseRead)
			}
		}
		if w.hooks.Assign != nil {
			w.hooks.Assign(lhs, rhs, s.Tok, st)
		}
	}
}

// escapesStore reports whether an lvalue stores into a field, map, or
// slice element (rather than a plain local variable).
func escapesStore(info *types.Info, lhs ast.Expr) bool {
	switch ast.Unparen(lhs).(type) {
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
		return true
	}
	return false
}

func (w *flowWalker) expr(e ast.Expr, st FlowState, ctx UseCtx) {
	if e == nil || w.claimed[e] {
		return
	}
	switch x := e.(type) {
	case *ast.Ident:
		if r, ok := RefOf(w.info, x); ok && w.hooks.Use != nil {
			w.hooks.Use(x, r, ctx, st)
		}
	case *ast.SelectorExpr:
		if r, ok := RefOf(w.info, x); ok {
			if w.hooks.Use != nil {
				w.hooks.Use(x, r, ctx, st)
			}
			return
		}
		// Package selector or method value: the base may still be a
		// tracked variable (method receiver).
		w.expr(x.X, st, ctx)
	case *ast.CallExpr:
		if w.hooks.PreCall != nil {
			for _, c := range w.hooks.PreCall(x, st) {
				w.claimed[c] = true
			}
		}
		w.expr(x.Fun, st, UseRead)
		for _, arg := range x.Args {
			w.expr(arg, st, UseArg)
		}
		if w.hooks.PostCall != nil {
			w.hooks.PostCall(x, st)
		}
	case *ast.BinaryExpr:
		w.expr(x.X, st, ctx)
		w.expr(x.Y, st, ctx)
	case *ast.UnaryExpr:
		w.expr(x.X, st, ctx)
	case *ast.ParenExpr:
		w.expr(x.X, st, ctx)
	case *ast.StarExpr:
		w.expr(x.X, st, ctx)
	case *ast.IndexExpr:
		w.expr(x.X, st, ctx)
		w.expr(x.Index, st, UseRead)
	case *ast.IndexListExpr:
		w.expr(x.X, st, ctx)
	case *ast.SliceExpr:
		w.expr(x.X, st, ctx)
		w.expr(x.Low, st, UseRead)
		w.expr(x.High, st, UseRead)
		w.expr(x.Max, st, UseRead)
	case *ast.TypeAssertExpr:
		w.expr(x.X, st, ctx)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, st, UseStore)
				continue
			}
			w.expr(el, st, UseStore)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Value, st, UseStore)
	case *ast.FuncLit:
		// Closures run at an unknown time: analyze the body in
		// isolation, leak nothing in or out.
		inner := &flowWalker{info: w.info, hooks: w.hooks, claimed: w.claimed}
		inner.stmt(x.Body, make(FlowState))
	}
}
