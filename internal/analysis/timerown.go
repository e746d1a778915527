package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TimerOwn enforces the engine's timer free-list ownership contract
// (DESIGN.md §5): sim.Reschedule / Engine.Reschedule take ownership of
// the handle passed in — the struct may be re-armed in place for an
// unrelated event — so the only valid handle afterwards is the one
// Reschedule returns. The analyzer tracks *sim.Timer handles through
// the intra-procedural flow pass and flags, along any control-flow
// path where the handle was not replaced:
//
//   - a plain use (read, argument, return) of the stale handle;
//   - Cancel/Stop on it — by then the struct may have been recycled
//     for a stranger's event, which the Cancel would kill;
//   - a second Reschedule of the same stale handle;
//   - storing it into a field, map, or slice (the stale alias escapes);
//   - discarding Reschedule's result, which makes every existing
//     handle stale with no replacement.
//
// The sim package itself (which implements the recycling) is exempt.
var TimerOwn = &Analyzer{
	Name: "timerown",
	Doc:  "flag uses of *sim.Timer handles after Reschedule transferred their ownership",
	Run:  runTimerOwn,
}

// Timer ownership facts.
const (
	ownLive        = 0 // valid handle (or no information)
	ownTransferred = 1 // handed to Reschedule on every path here
	ownMaybe       = 2 // handed to Reschedule on some path here
)

func ownJoin(a, b int) int {
	if a == b {
		return a
	}
	return ownMaybe
}

func runTimerOwn(p *Pass) {
	if isSimPackage(p.Pkg.Path) {
		return // the engine legally touches recycled structs
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkTimerOwn(p, fd.Body)
		}
	}
}

func checkTimerOwn(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// cancels maps a Cancel/Stop call to the receiver expression it
	// claimed in PreCall, so PostCall can phrase the specific message.
	cancels := make(map[*ast.CallExpr]ast.Expr)
	transfers := make(map[*ast.CallExpr]ast.Expr)

	hooks := FlowHooks{
		Join: ownJoin,
		PreCall: func(call *ast.CallExpr, st FlowState) []ast.Expr {
			var claimed []ast.Expr
			if arg := rescheduleHandleArg(info, call); arg != nil {
				transfers[call] = arg
				claimed = append(claimed, arg)
			}
			if recv := cancelReceiver(info, call); recv != nil {
				cancels[call] = recv
				claimed = append(claimed, recv)
			}
			return claimed
		},
		PostCall: func(call *ast.CallExpr, st FlowState) {
			if arg, ok := transfers[call]; ok {
				if r, ok := RefOf(info, arg); ok {
					switch st.Get(r) {
					case ownTransferred:
						p.Reportf(arg.Pos(),
							"second Reschedule of %s on this path: its ownership was already transferred and the handle is stale; use the handle the first Reschedule returned",
							exprString(arg))
					case ownMaybe:
						p.Reportf(arg.Pos(),
							"Reschedule of %s, which may already have been handed to Reschedule on another path; replace the handle with Reschedule's result on every path",
							exprString(arg))
					}
					st.Set(r, ownTransferred)
				}
			}
			if recv, ok := cancels[call]; ok {
				if r, ok := RefOf(info, recv); ok {
					switch st.Get(r) {
					case ownTransferred:
						p.Reportf(recv.Pos(),
							"Cancel of %s after Reschedule took ownership: the engine may have recycled the struct for an unrelated event, so this Cancel can kill a stranger's timer",
							exprString(recv))
					case ownMaybe:
						p.Reportf(recv.Pos(),
							"Cancel of %s, which may have been handed to Reschedule on another path (recycled handle); re-assign the handle from Reschedule's result on every path",
							exprString(recv))
					}
				}
			}
		},
		Assign: func(lhs, rhs ast.Expr, tok token.Token, st FlowState) {
			if r, ok := RefOf(info, lhs); ok && isSimTimerPtr(info.TypeOf(lhs)) {
				// Any re-assignment installs a fresh handle.
				st.Set(r, ownLive)
			}
		},
		Use: func(e ast.Expr, r Ref, ctx UseCtx, st FlowState) {
			if !isSimTimerPtr(info.TypeOf(e)) {
				return
			}
			fact := st.Get(r)
			if fact == ownLive {
				return
			}
			qualifier := "was "
			if fact == ownMaybe {
				qualifier = "may have been "
			}
			switch ctx {
			case UseStore:
				p.Reportf(e.Pos(),
					"stores %s into a field, map, or slice, but its ownership %stransferred to Reschedule — the escaped handle is stale and may be recycled",
					exprString(e), qualifier)
			case UseReturn:
				p.Reportf(e.Pos(),
					"returns %s whose ownership %stransferred to Reschedule; return the handle Reschedule returned instead",
					exprString(e), qualifier)
			default:
				p.Reportf(e.Pos(),
					"use of %s after its ownership %stransferred to Reschedule; use the handle Reschedule returned instead",
					exprString(e), qualifier)
			}
		},
	}
	WalkFlow(info, body, nil, hooks)

	// Discarded Reschedule results are a syntactic check: the returned
	// handle is the only valid one, so dropping it strands the caller
	// with nothing but stale aliases.
	ast.Inspect(body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		if rescheduleHandleArg(info, call) == nil || !isSimTimerPtr(info.TypeOf(call)) {
			return true
		}
		p.Reportf(es.Pos(),
			"discarded Reschedule result: the returned handle replaces the one passed in; assign it back (t = sim.Reschedule(r, t, ...))")
		return true
	})
}

// rescheduleHandleArg returns the *sim.Timer argument of a Reschedule
// call (package helper sim.Reschedule or a Reschedule method), or nil
// when call is not a Reschedule.
func rescheduleHandleArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	name := ""
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	if name != "Reschedule" {
		return nil
	}
	for _, arg := range call.Args {
		if isSimTimerPtr(info.TypeOf(arg)) {
			return arg
		}
	}
	return nil
}

// cancelReceiver returns the receiver expression of a t.Cancel()/
// t.Stop() call on a *sim.Timer, or nil.
func cancelReceiver(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Cancel" && sel.Sel.Name != "Stop") {
		return nil
	}
	if !isSimTimerPtr(info.TypeOf(sel.X)) {
		return nil
	}
	return sel.X
}

// isSimPackage reports whether pkgPath is the sim engine package.
func isSimPackage(pkgPath string) bool {
	return pkgPath == "taq/internal/sim"
}
