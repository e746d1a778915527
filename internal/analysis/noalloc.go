package analysis

// noalloc enforces the hotpath allocation contract: every function in
// the //taq:hotpath closure (see callgraph.go), in whatever package,
// must be allocation-free in steady state. It flags the allocation
// sources Go hides in plain syntax: escaping composite literals and
// new/make, any append whose target is not a bounded reslice (x[:n]),
// map access, string<->[]byte conversions, interface boxing at call
// sites, capturing closures, variadic calls, string concatenation, and
// defer inside loops. Amortized growth, free-list refills and
// ROADMAP-tracked map lookups are expected findings — they are
// suppressed in place with //taq:allow noalloc and a rationale, so the
// cost is visible in the source where it is paid.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc flags heap-allocation sources in hotpath-closure functions.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "//taq:hotpath closure functions must not allocate (composites, make/new, growing append, maps, boxing, closures, variadic calls)",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, n := range pass.Prog.HotNodes() {
		if n.Pkg == pass.Pkg {
			checkNoAlloc(pass, n)
		}
	}
}

// hotf reports a finding inside hotpath function n, naming the root
// that pulled n into the closure so the reader can trace the path.
func hotf(pass *Pass, n *FuncNode, pos token.Pos, format string, args ...any) {
	root := pass.Prog.RootOf(n)
	msg := fmt.Sprintf(format, args...)
	if root == n {
		pass.Reportf(pos, "%s (hotpath root %s)", msg, shortFuncName(n.Name()))
	} else {
		pass.Reportf(pos, "%s (in %s, hot via root %s)", msg, shortFuncName(n.Name()), shortFuncName(root.Name()))
	}
}

// shortFuncName drops the module prefix from a qualified function name
// so diagnostics stay readable: "(*taq/internal/core.TAQ).Enqueue"
// becomes "(*core.TAQ).Enqueue".
func shortFuncName(name string) string {
	name = strings.ReplaceAll(name, "taq/internal/analysis/testdata/src/", "")
	name = strings.ReplaceAll(name, "taq/internal/", "")
	return strings.ReplaceAll(name, "taq/", "")
}

func checkNoAlloc(pass *Pass, n *FuncNode) {
	info := n.Pkg.Info

	// Loop body ranges, for the defer-in-loop check.
	var loops [][2]token.Pos
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.ForStmt:
			loops = append(loops, [2]token.Pos{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, [2]token.Pos{s.Body.Pos(), s.Body.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, r := range loops {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}

	handledLit := make(map[*ast.CompositeLit]bool)
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			if caps := closureCaptures(info, x); len(caps) > 0 {
				hotf(pass, n, x.Pos(), "closure captures %s and allocates at every creation", strings.Join(caps, ", "))
			}
			return false // the literal's body is its own node
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					handledLit[cl] = true
					hotf(pass, n, x.Pos(), "&%s{...} escapes to the heap", typeLabel(info, cl))
				}
			}
		case *ast.CompositeLit:
			if handledLit[x] {
				return true
			}
			switch underlyingOf(info, x).(type) {
			case *types.Map:
				hotf(pass, n, x.Pos(), "map literal allocates")
			case *types.Slice:
				hotf(pass, n, x.Pos(), "slice literal allocates")
			}
		case *ast.CallExpr:
			checkAllocCall(pass, n, x)
		case *ast.IndexExpr:
			if _, ok := underlyingOf(info, x.X).(*types.Map); ok {
				hotf(pass, n, x.Pos(), "map access %s", exprString(x))
			}
		case *ast.RangeStmt:
			if _, ok := underlyingOf(info, x.X).(*types.Map); ok {
				hotf(pass, n, x.Pos(), "map iteration over %s", exprString(x.X))
			}
		case *ast.DeferStmt:
			if inLoop(x.Pos()) {
				hotf(pass, n, x.Pos(), "defer inside a loop allocates per iteration")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.Types[x.X].Type) {
				hotf(pass, n, x.Pos(), "string concatenation allocates")
			}
		}
		return true
	})
}

// checkAllocCall handles the call-shaped allocation sources: builtins,
// allocating conversions, interface boxing, and variadic slices.
func checkAllocCall(pass *Pass, n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				hotf(pass, n, call.Pos(), "new(...) allocates")
			case "make":
				hotf(pass, n, call.Pos(), "make allocates")
			case "append":
				// append(x[:n], ...) refills a backing array the
				// function already holds; any other append may grow.
				if se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !ok || se.High == nil {
					hotf(pass, n, call.Pos(), "append to %s may grow", exprString(call.Args[0]))
				}
			case "delete":
				hotf(pass, n, call.Pos(), "map delete %s", exprString(call))
			}
			return
		}
	}
	// Conversions: string<->[]byte/[]rune copy; conversion to an
	// interface type boxes.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst := tv.Type
		src := info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		switch {
		case isStringType(dst) && isByteish(src), isByteish(dst) && isStringType(src):
			hotf(pass, n, call.Pos(), "conversion %s copies and allocates", exprString(call))
		case types.IsInterface(dst) && boxes(src):
			hotf(pass, n, call.Pos(), "conversion %s boxes into an interface", exprString(call))
		}
		return
	}

	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	npar := params.Len()
	// Variadic calls materialize a slice for their extra arguments.
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= npar {
		elem := params.At(npar - 1).Type().(*types.Slice).Elem()
		hotf(pass, n, call.Pos(), "variadic call %s allocates a ...%s slice", exprString(call), types.TypeString(elem, shortQualifier))
	}
	// Interface boxing at the call site.
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < npar-1 || (!sig.Variadic() && i < npar):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(npar - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		at := info.Types[arg].Type
		if pt == nil || at == nil || !types.IsInterface(pt) {
			continue
		}
		if boxes(at) {
			hotf(pass, n, arg.Pos(), "argument %s boxes into interface %s", exprString(arg), types.TypeString(pt, shortQualifier))
		}
	}
}

// boxes reports whether converting a value of type t to an interface
// allocates: pointer-shaped values (pointers, chans, maps, funcs) are
// stored directly; everything else (structs, ints, strings, slices)
// is copied to the heap. Untyped nil and existing interfaces do not
// allocate.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	}
	return true
}

// underlyingOf returns the underlying type of e, or nil when the
// checker recorded none.
func underlyingOf(info *types.Info, e ast.Expr) types.Type {
	t := info.Types[e].Type
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteish(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func shortQualifier(p *types.Package) string { return p.Name() }

func typeLabel(info *types.Info, cl *ast.CompositeLit) string {
	if t := info.Types[cl].Type; t != nil {
		return types.TypeString(t, shortQualifier)
	}
	return exprString(cl.Type)
}

// closureCaptures lists the variables a function literal captures from
// its enclosing scopes (excluding package-level variables, which need
// no closure cell).
func closureCaptures(info *types.Info, fl *ast.FuncLit) []string {
	var names []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(fl.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true // declared inside the literal
		}
		if sc := v.Parent(); sc == nil || sc.Parent() == types.Universe {
			return true // package-level variable
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}
