package analysis

// shardown enforces the shard-ownership contract ahead of the
// flow-hash-sharded middlebox (ROADMAP item 1): a type annotated
// //taq:shardowned is shard-private mutable state — the tracker, the
// flat flow store, the open-addressed index, class queues, deadline
// heaps. Values of such a type (or pointers/slices/arrays/maps of it)
// must never leave their owning scope:
//
//   - stored into a package-level variable (or declared as one);
//   - passed to, or captured by, a goroutine — a new goroutine is
//     another shard's execution context;
//   - returned by an exported function or method — the audited escape
//     hatch is a //taq:crossshard annotation with a rationale;
//   - passed as an argument across a package boundary within this
//     module, unless the callee is //taq:crossshard.
//
// Callees outside the module (stdlib like slices.SortFunc) are opaque
// leaves: they cannot retain shard state across calls in ways this
// contract is about, and flagging them would drown the signal.
// Function-value calls are skipped — the callee is not statically
// known, so the edge is not demonstrably a boundary crossing. Ownership is not transitive through struct fields (see
// ownedIn); wrapper structs need their own annotation.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardOwn proves //taq:shardowned values never escape their shard.
var ShardOwn = &Analyzer{
	Name: "shardown",
	Doc:  "//taq:shardowned state must not reach globals, goroutines, exported returns, or foreign packages except via //taq:crossshard",
	Run:  runShardOwn,
}

func runShardOwn(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	c := pass.Prog.contractsIndex()
	if len(c.shardOwned) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		checkShardFile(pass, f, c)
	}
}

func checkShardFile(pass *Pass, f *ast.File, c *contracts) {
	info := pass.Pkg.Info
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, s := range d.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					if tn := ownedIn(obj.Type(), c.shardOwned, 0); tn != nil {
						pass.Reportf(name.Pos(), "package-level var %s holds shard-owned %s — shard state must stay inside its shard (owner %s)",
							name.Name, ownerLabel(tn), tn.Pkg().Path())
					}
				}
			}
		case *ast.FuncDecl:
			checkShardFunc(pass, d, c)
		}
	}
}

func checkShardFunc(pass *Pass, fd *ast.FuncDecl, c *contracts) {
	info := pass.Pkg.Info
	fn, _ := info.Defs[fd.Name].(*types.Func)
	cross := fn != nil && c.crossShard[fn.FullName()]

	// Exported API must not hand shard-owned values past the owner.
	if fd.Name.IsExported() && !cross && fd.Type.Results != nil {
		for _, fld := range fd.Type.Results.List {
			t := info.TypeOf(fld.Type)
			if tn := ownedIn(t, c.shardOwned, 0); tn != nil {
				pass.Reportf(fld.Type.Pos(), "exported %s returns shard-owned %s past its owner — annotate //taq:crossshard with a rationale or keep it unexported (owner %s)",
					fd.Name.Name, ownerLabel(tn), tn.Pkg().Path())
			}
		}
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			checkShardStore(pass, x, c)
		case *ast.GoStmt:
			checkShardGo(pass, x, c)
		case *ast.CallExpr:
			checkShardCall(pass, x, c)
		}
		return true
	})
}

// checkShardStore flags assignments that park a shard-owned value in a
// package-level variable (directly or through its fields/elements).
func checkShardStore(pass *Pass, as *ast.AssignStmt, c *contracts) {
	info := pass.Pkg.Info
	for i, lhs := range as.Lhs {
		base := baseIdent(lhs)
		if base == nil || !isPkgLevelVar(info, base) {
			continue
		}
		// Prefer the stored value's type: the global may be typed as an
		// interface (any) and still smuggle the record.
		var t types.Type
		if len(as.Rhs) == len(as.Lhs) {
			t = info.TypeOf(as.Rhs[i])
		}
		if t == nil || ownedIn(t, c.shardOwned, 0) == nil {
			t = info.TypeOf(lhs)
		}
		if tn := ownedIn(t, c.shardOwned, 0); tn != nil {
			pass.Reportf(lhs.Pos(), "shard-owned %s stored into package-level %s — shard state must stay inside its shard (owner %s)",
				ownerLabel(tn), base.Name, tn.Pkg().Path())
		}
	}
}

// checkShardGo flags shard-owned values entering a goroutine: by
// argument, by method receiver, or by closure capture.
func checkShardGo(pass *Pass, g *ast.GoStmt, c *contracts) {
	info := pass.Pkg.Info
	call := g.Call
	for _, arg := range call.Args {
		if tn := ownedIn(info.TypeOf(arg), c.shardOwned, 0); tn != nil {
			pass.Reportf(arg.Pos(), "shard-owned %s passed into a goroutine — a new goroutine is another shard's context (owner %s)",
				ownerLabel(tn), tn.Pkg().Path())
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if tn := ownedIn(info.TypeOf(fun.X), c.shardOwned, 0); tn != nil {
			pass.Reportf(fun.X.Pos(), "shard-owned %s receiver started as a goroutine (owner %s)",
				ownerLabel(tn), tn.Pkg().Path())
		}
	case *ast.FuncLit:
		seen := make(map[*types.Var]bool)
		ast.Inspect(fun.Body, func(nd ast.Node) bool {
			id, ok := nd.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok || seen[v] || v.IsField() {
				return true
			}
			if v.Pos() >= fun.Pos() && v.Pos() <= fun.End() {
				return true // declared inside the literal
			}
			if sc := v.Parent(); sc == nil || sc.Parent() == types.Universe {
				return true // package-level: flagged at its declaration
			}
			if tn := ownedIn(v.Type(), c.shardOwned, 0); tn != nil {
				seen[v] = true
				pass.Reportf(id.Pos(), "goroutine closure captures shard-owned %s %s (owner %s)",
					ownerLabel(tn), v.Name(), tn.Pkg().Path())
			}
			return true
		})
	}
}

// checkShardCall flags shard-owned arguments handed to a statically
// resolved callee declared in a different package of this module,
// unless the callee is //taq:crossshard.
func checkShardCall(pass *Pass, call *ast.CallExpr, c *contracts) {
	info := pass.Pkg.Info
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return // function values: callee unknown, skip
	}
	callee, ok := obj.(*types.Func)
	if !ok {
		return // builtin, conversion, or func-typed variable
	}
	calleePkg := callee.Pkg()
	if calleePkg == nil || c.crossShard[callee.FullName()] {
		return
	}
	for _, arg := range call.Args {
		tn := ownedIn(info.TypeOf(arg), c.shardOwned, 0)
		if tn == nil {
			continue
		}
		owner := tn.Pkg()
		if owner == nil || calleePkg.Path() == owner.Path() {
			continue // owner-package internals
		}
		if modulePathOf(calleePkg.Path()) != modulePathOf(owner.Path()) {
			continue // stdlib / external leaf
		}
		pass.Reportf(arg.Pos(), "shard-owned %s passed across the package boundary to %s — annotate the callee //taq:crossshard or keep the call inside %s",
			ownerLabel(tn), shortFuncName(callee.FullName()), owner.Path())
	}
}

// baseIdent unwraps an lvalue to its leftmost identifier: g, g.f,
// g[i].f, (*g).f all resolve to g.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPkgLevelVar reports whether id names a package-level variable.
func isPkgLevelVar(info *types.Info, id *ast.Ident) bool {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	sc := v.Parent()
	return sc != nil && sc.Parent() == types.Universe
}
