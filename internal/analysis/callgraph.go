package analysis

// callgraph.go computes the whole-program call graph and hotpath
// closure behind noalloc and noblock. A function is
// *hot* when a `//taq:hotpath` directive in its doc comment declares it
// a root, or when any hot function can reach it through the call graph.
// The graph is deliberately conservative where Go's static story runs
// out:
//
//   - a call through an interface method edges to that method on every
//     named type in the loaded program that implements the interface;
//   - a call through a function value (field, parameter, variable)
//     edges to every address-taken function or closure with an
//     identical signature;
//   - a function literal is its own node, named parent$N; creating the
//     literal does not make it hot — only calling it (directly, or
//     conservatively through a matching function value) does.
//
// Over-approximation is the right failure mode for a contract checker:
// a cold function mistakenly pulled into the closure produces a finding
// a human reviews once and suppresses with a rationale; a hot function
// mistakenly left out ships an allocation silently. The closure is
// meaningful only when the whole module is loaded (./...): packages
// outside the load set have no bodies and act as leaves.

import (
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"sort"
	"strings"
)

// FuncNode is one function in the whole-program call graph: a declared
// function or method (Fn != nil) or a function literal (Lit != nil).
type FuncNode struct {
	Fn   *types.Func  // declared function; nil for literals
	Lit  *ast.FuncLit // literal; nil for declared functions
	Pkg  *Package     // package the body lives in
	Body *ast.BlockStmt

	name  string
	root  bool
	taken bool        // address-taken: referenced outside call position
	edges []*FuncNode // callees, conservatively resolved
}

// Name returns the fully qualified function name, e.g.
// "(*taq/internal/core.TAQ).Enqueue" or "taq/internal/sim.before"; the
// N-th literal nested in F is "F$N".
func (n *FuncNode) Name() string { return n.name }

// IsRoot reports whether the node carries the //taq:hotpath directive.
func (n *FuncNode) IsRoot() bool { return n.root }

// Program holds the loaded packages plus the lazily computed call
// graph and hotpath closure, shared by every pass of one run.
type Program struct {
	Pkgs []*Package

	built bool
	nodes []*FuncNode // deterministic: source order per package
	byFn  map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// hot maps each closure member to the nearest declared root.
	hot   map[*FuncNode]*FuncNode
	roots []*FuncNode

	named []*types.Named              // all named types, for Implements
	impls map[*types.Func][]*FuncNode // interface method -> implementations
	cands map[string][]*FuncNode      // signature key -> address-taken funcs

	// contr is the lazily built v4 annotation index (directives.go);
	// it needs only the ASTs and type info, never the call graph.
	contr *contracts
}

// NewProgram wraps pkgs; the call graph is built on first use.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs}
}

// Roots returns the declared hotpath roots, sorted by name.
func (p *Program) Roots() []*FuncNode {
	p.ensure()
	return p.roots
}

// HotNodes returns every function in the hotpath closure (roots
// included), sorted by package path then name.
func (p *Program) HotNodes() []*FuncNode {
	p.ensure()
	out := make([]*FuncNode, 0, len(p.hot))
	for n := range p.hot {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg.Path != out[j].Pkg.Path {
			return out[i].Pkg.Path < out[j].Pkg.Path
		}
		return out[i].name < out[j].name
	})
	return out
}

// RootOf returns the nearest declared root that reaches n, or nil when
// n is not in the closure.
func (p *Program) RootOf(n *FuncNode) *FuncNode {
	p.ensure()
	return p.hot[n]
}

func (p *Program) ensure() {
	if p.built {
		return
	}
	p.built = true
	p.byFn = make(map[*types.Func]*FuncNode)
	p.byLit = make(map[*ast.FuncLit]*FuncNode)
	p.impls = make(map[*types.Func][]*FuncNode)
	p.cands = make(map[string][]*FuncNode)
	p.hot = make(map[*FuncNode]*FuncNode)

	// Pass 1: index declared functions and their nested literals.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{
					Fn:   fn,
					Pkg:  pkg,
					Body: fd.Body,
					name: fn.FullName(),
					root: hasHotpathDirective(fd.Doc),
				}
				p.byFn[fn] = n
				p.nodes = append(p.nodes, n)
				p.collectLits(n, fd.Body)
			}
		}
		p.collectNamed(pkg)
	}

	// Pass 2: address-taken marking, program-wide. A function referenced
	// anywhere outside call position (stored, passed, returned) can be
	// the target of any signature-compatible indirect call.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			p.markTaken(pkg, f)
		}
	}
	for _, n := range p.nodes {
		if !n.taken {
			continue
		}
		key := sigKey(nodeSig(n))
		p.cands[key] = append(p.cands[key], n)
	}
	for _, c := range p.cands {
		sort.Slice(c, func(i, j int) bool { return c[i].name < c[j].name })
	}

	// Pass 3: edges.
	for _, n := range p.nodes {
		p.scanEdges(n)
	}

	// Pass 4: BFS the closure from the sorted roots.
	for _, n := range p.nodes {
		if n.root {
			p.roots = append(p.roots, n)
		}
	}
	sort.Slice(p.roots, func(i, j int) bool { return p.roots[i].name < p.roots[j].name })
	queue := make([]*FuncNode, 0, len(p.roots))
	for _, r := range p.roots {
		p.hot[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, to := range n.edges {
			if _, ok := p.hot[to]; !ok {
				p.hot[to] = p.hot[n]
				queue = append(queue, to)
			}
		}
	}
}

// collectLits creates child nodes for the literals directly nested in
// parent's body (recursively, each literal owning its own children).
func (p *Program) collectLits(parent *FuncNode, body ast.Node) {
	k := 0
	ast.Inspect(body, func(nd ast.Node) bool {
		if nd == body {
			return true
		}
		fl, ok := nd.(*ast.FuncLit)
		if !ok {
			return true
		}
		k++
		child := &FuncNode{
			Lit:  fl,
			Pkg:  parent.Pkg,
			Body: fl.Body,
			name: fmt.Sprintf("%s$%d", parent.name, k),
		}
		p.byLit[fl] = child
		p.nodes = append(p.nodes, child)
		p.collectLits(child, fl.Body)
		return false
	})
}

func (p *Program) collectNamed(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			p.named = append(p.named, named)
		}
	}
}

// markTaken walks one file and marks every function referenced outside
// call position as address-taken. A method value on an interface
// receiver marks every implementation.
func (p *Program) markTaken(pkg *Package, f *ast.File) {
	// Identifiers in call position: the Fun (or its Sel) of a CallExpr.
	inCall := make(map[*ast.Ident]bool)
	calledLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(f, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			inCall[fun] = true
		case *ast.SelectorExpr:
			inCall[fun.Sel] = true
		case *ast.FuncLit:
			calledLits[fun] = true
		}
		return true
	})
	ast.Inspect(f, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.Ident:
			if inCall[x] {
				return true
			}
			fn, ok := usedFunc(pkg.Info, x)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, m := range p.implementations(fn) {
					m.taken = true
				}
				return true
			}
			if n := p.byFn[fn.Origin()]; n != nil {
				n.taken = true
			}
		case *ast.FuncLit:
			if !calledLits[x] {
				if n := p.byLit[x]; n != nil {
					n.taken = true
				}
			}
		}
		return true
	})
}

func usedFunc(info *types.Info, id *ast.Ident) (*types.Func, bool) {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// scanEdges records n's outgoing call edges, walking only the region n
// owns (nested literal bodies belong to their own nodes).
func (p *Program) scanEdges(n *FuncNode) {
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := nd.(*ast.CallExpr); ok {
			p.callEdges(n, call)
		}
		return true
	})
}

// callEdges resolves one call expression to zero or more edges.
func (p *Program) callEdges(n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Direct call of a literal: func(){...}().
	if fl, ok := fun.(*ast.FuncLit); ok {
		if to := p.byLit[fl]; to != nil {
			n.edges = append(n.edges, to)
		}
		return
	}
	// Conversions are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	// Static callee (function, method, or interface method)?
	var callee *types.Func
	switch x := fun.(type) {
	case *ast.Ident:
		if fn, ok := usedFunc(info, x); ok {
			callee = fn
		} else if _, isBuiltin := info.Uses[x].(*types.Builtin); isBuiltin {
			return
		}
	case *ast.SelectorExpr:
		if fn, ok := usedFunc(info, x.Sel); ok {
			callee = fn
		}
	}
	if callee != nil {
		if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			for _, m := range p.implementations(callee) {
				n.edges = append(n.edges, m)
			}
			return
		}
		if to := p.byFn[callee.Origin()]; to != nil {
			n.edges = append(n.edges, to)
		}
		return
	}
	// Indirect call through a function value: conservatively edge to
	// every address-taken function with an identical signature.
	tv, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	n.edges = append(n.edges, p.cands[sigKey(sig)]...)
}

// implementations returns the concrete methods implementing interface
// method m across every named type in the program, sorted by name.
func (p *Program) implementations(m *types.Func) []*FuncNode {
	if got, ok := p.impls[m]; ok {
		return got
	}
	recv := m.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		p.impls[m] = nil
		return nil
	}
	var out []*FuncNode
	for _, named := range p.named {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if fm, ok := obj.(*types.Func); ok {
			if node := p.byFn[fm.Origin()]; node != nil {
				out = append(out, node)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	p.impls[m] = out
	return out
}

// nodeSig returns the node's signature as seen by a function value:
// method receivers are stripped (a method value has no receiver).
func nodeSig(n *FuncNode) *types.Signature {
	if n.Fn != nil {
		return n.Fn.Type().(*types.Signature)
	}
	return n.Pkg.Info.Types[n.Lit].Type.(*types.Signature)
}

// sigKey canonicalizes a signature (sans receiver) for indirect-call
// candidate matching.
func sigKey(sig *types.Signature) string {
	flat := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(flat, func(p *types.Package) string { return p.Path() })
}

const hotpathPrefix = "taq:hotpath"

// hasHotpathDirective reports whether doc contains a //taq:hotpath
// line (optionally followed by a free-form rationale).
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if word, _, ok := taqDirective(c.Text); ok && word == "hotpath" {
			return true
		}
	}
	return false
}

// taqDirective parses a "//taq:word rest..." comment. ok is false for
// comments that are not taq directives at all.
func taqDirective(text string) (word, rest string, ok bool) {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(text, "taq:") {
		return "", "", false
	}
	body := strings.TrimPrefix(text, "taq:")
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i:]), true
	}
	return body, "", true
}

// WriteRoots prints the hotpath closure: the declared roots, then the
// closure size per package (declared functions only; literals count
// toward their parent's package). The output is byte-stable so
// TestRepoIsClean can compare it against docs/hotpath-closure.txt and
// catch a closure that changed without review.
func WriteRoots(w io.Writer, pkgs []*Package) error {
	prog := NewProgram(pkgs)
	perPkg := make(map[string]int)
	total := 0
	for _, n := range prog.HotNodes() {
		if n.Fn == nil {
			continue
		}
		perPkg[n.Pkg.Path]++
		total++
	}
	for _, r := range prog.Roots() {
		if _, err := fmt.Fprintf(w, "root %s\n", r.Name()); err != nil {
			return err
		}
	}
	paths := make([]string, 0, len(perPkg))
	for p := range perPkg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := fmt.Fprintf(w, "package %s: %d hotpath functions\n", p, perPkg[p]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "total %d hotpath functions from %d roots\n", total, len(prog.Roots()))
	return err
}
