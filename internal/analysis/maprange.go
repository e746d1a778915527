package analysis

import (
	"go/ast"
	"go/types"
)

// MapRange flags every `for ... range m` over a map in a deterministic
// package. Go randomizes map iteration order, and whether a loop body
// is order-sensitive is too subtle to judge by its syntax: the
// deterministic packages keep what they walk in tables indexed by id,
// and a map that must be walked carries a //taq:allow maprange with
// the argument why its order cannot matter.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag iteration over maps in deterministic packages",
	Run:  runMapRange,
}

func runMapRange(p *Pass) {
	if !p.Cfg.IsDeterministic(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if t := p.Pkg.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						p.Reportf(rs.Pos(), "iterating map %s in nondeterministic order; keep a table indexed by id, or argue the order away with //taq:allow maprange", exprString(rs.X))
					}
				}
			}
			return true
		})
	}
}
