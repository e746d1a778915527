package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapRange flags `for ... range m` over a map in deterministic packages
// whenever the loop body does something order-sensitive: calling
// functions (scheduling, callbacks, mutation behind an interface),
// accumulating floating-point values (addition is not associative),
// overwriting variables outside the loop (last writer wins in map
// order), appending to a slice that is never sorted afterwards,
// returning a loop variable (first match in map order), or sending on a
// channel. Order-insensitive bodies — integer counting,
// per-key writes indexed by the loop key, deletes — stay legal, as does
// the canonical collect-keys-then-sort idiom.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag order-sensitive iteration over maps in deterministic packages",
	Run:  runMapRange,
}

func runMapRange(p *Pass) {
	if !p.Cfg.IsDeterministic(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		// Collect every function body so each range statement can be
		// matched to its innermost enclosing function (the scope in
		// which a sort-after-loop may appear).
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			checkMapRange(p, rs, innermost(bodies, rs.Pos()))
			return true
		})
	}
}

// innermost returns the smallest body containing pos (nil if none).
func innermost(bodies []*ast.BlockStmt, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= pos && pos < b.End() {
			if best == nil || b.Pos() > best.Pos() {
				best = b
			}
		}
	}
	return best
}

func checkMapRange(p *Pass, rs *ast.RangeStmt, encl *ast.BlockStmt) {
	info := p.Pkg.Info
	t := info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}

	keyObj := rangeVarObj(info, rs.Key)
	valObj := rangeVarObj(info, rs.Value)
	isLocal := func(obj types.Object) bool {
		return obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
	}
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil && (o == keyObj || o == valObj) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	var reasons []string
	addReason := func(r string) {
		for _, have := range reasons {
			if have == r {
				return
			}
		}
		if len(reasons) < 3 {
			reasons = append(reasons, r)
		}
	}
	var appendTargets []types.Object

	handleLHS := func(lhs ast.Expr, tok token.Token) {
		base, keyIndexed := lvalueBase(lhs, usesLoopVar)
		if base == nil {
			return
		}
		obj := info.Uses[base]
		if obj == nil {
			obj = info.Defs[base]
		}
		if obj == nil || isLocal(obj) {
			return
		}
		lt := info.TypeOf(lhs)
		switch tok {
		case token.ASSIGN:
			if !keyIndexed {
				addReason(fmt.Sprintf("overwrites %s (last writer wins in map order)", exprString(lhs)))
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN,
			token.INC, token.DEC:
			if isOrderSensitiveNumeric(lt) {
				addReason(fmt.Sprintf("accumulates floating-point into %s (addition is not associative)", exprString(lhs)))
			}
		default: // /=, %=, <<=, >>=, string +=, ...
			addReason(fmt.Sprintf("order-dependent update of %s", exprString(lhs)))
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if b, ok := calleeObj(info, n.Fun).(*types.Builtin); ok {
				_ = b // append is handled at its assignment; len/cap/delete are order-safe
				return true
			}
			addReason(fmt.Sprintf("calls %s (callbacks run in map order)", exprString(n.Fun)))
		case *ast.SendStmt:
			addReason("sends on a channel in map order")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesLoopVar(res) {
					addReason(fmt.Sprintf("returns %s (first match in map order)", exprString(res)))
				}
			}
		case *ast.IncDecStmt:
			handleLHS(n.X, n.Tok)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				// x = append(x, ...) is an append, not an overwrite.
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isAppendOf(info, call, lhs) {
						base, _ := lvalueBase(lhs, usesLoopVar)
						if base != nil {
							obj := info.Uses[base]
							if obj == nil {
								obj = info.Defs[base]
							}
							if obj != nil && !isLocal(obj) {
								appendTargets = append(appendTargets, obj)
							}
						}
						continue
					}
				}
				handleLHS(lhs, n.Tok)
			}
		}
		return true
	})

	// Appends alone are fine if the slice is sorted after the loop (the
	// collect-then-sort idiom); otherwise the slice inherits map order.
	for _, obj := range appendTargets {
		if !sortedAfter(p, encl, rs, obj) {
			addReason(fmt.Sprintf("appends to %s without sorting it afterwards", obj.Name()))
		}
	}

	if len(reasons) > 0 {
		p.Reportf(rs.Pos(),
			"iterating map %s in nondeterministic order: %s; iterate sorted keys instead",
			exprString(rs.X), strings.Join(reasons, "; "))
	}
}

// rangeVarObj resolves the object of a range key/value variable.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id == nil {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// lvalueBase walks an lvalue (selectors, indexes, derefs) to its base
// identifier, reporting whether any index along the way mentions a
// loop variable (a per-key write, which is order-insensitive).
func lvalueBase(e ast.Expr, usesLoopVar func(ast.Expr) bool) (*ast.Ident, bool) {
	keyIndexed := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, keyIndexed
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if usesLoopVar(x.Index) {
				keyIndexed = true
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, keyIndexed
		}
	}
}

func calleeObj(info *types.Info, fun ast.Expr) types.Object {
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	case *ast.ParenExpr:
		return calleeObj(info, f.X)
	}
	return nil
}

func isAppendOf(info *types.Info, call *ast.CallExpr, lhs ast.Expr) bool {
	if b, ok := calleeObj(info, call.Fun).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return len(call.Args) > 0 && exprString(call.Args[0]) == exprString(lhs)
}

// isOrderSensitiveNumeric reports whether commutative-operator updates
// of this type still depend on evaluation order (floats, complex).
func isOrderSensitiveNumeric(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return true // be conservative about named/unknown types
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// sortedAfter reports whether, after the range statement, the enclosing
// function sorts the appended-to object via package sort or slices.
func sortedAfter(p *Pass, encl *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	if encl == nil {
		return false
	}
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && p.Pkg.Info.Uses[aid] == obj {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
