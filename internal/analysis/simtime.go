package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// SimTime is the units checker for the three time representations the
// codebase juggles: sim.Time (virtual nanoseconds), time.Duration
// (wall nanoseconds), and raw float64 seconds (metrics, rate math).
// The named types keep the compiler honest across *typed* values, but
// untyped constants and float conversions slip through — `Schedule(5,
// fn)` compiles and means five *nanoseconds*, and `sim.Time(2.5)`
// silently truncates 2.5 "seconds" to 2 nanoseconds. SimTime flags:
//
//   - a bare numeric literal (no unit constant anywhere in the
//     expression) supplied where sim.Time is expected — write
//     5*sim.Second or sim.FromSeconds(5) instead;
//   - sim.Time(x) where x is a float expression with no
//     sim.Time/time.Duration-derived operand — raw seconds truncated
//     to nanoseconds; use sim.FromSeconds;
//   - sim.Time(x.Seconds()) — definitely seconds where nanoseconds
//     are expected;
//   - sim.Time(d) from a time.Duration (use sim.FromDuration) and
//     time.Duration(t) from a sim.Time (use t.Duration()) — both are
//     numerically fine today, which is exactly why the explicit
//     helper should record the intent;
//   - float additions/comparisons mixing a .Seconds() value with a
//     float64(t) nanosecond value.
//
// Dimensionless scaling (t * sim.Time(n), sim.Time(float64(rtt)*j))
// stays legal: those expressions carry a unit operand. The sim package
// itself — which implements the conversion helpers — is exempt.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "flag unit-unsafe mixing of sim.Time, time.Duration, and raw float seconds",
	Run:  runSimTime,
}

func runSimTime(p *Pass) {
	if isSimPackage(p.Pkg.Path) {
		return // home of the conversion helpers
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkSimTimeCall(p, info, n)
			case *ast.BinaryExpr:
				checkSecondsMix(p, info, n)
				// Additive and comparison operators demand matching
				// units on both sides; multiplicative ones are the
				// legal dimensionless-scaling form (t * 2).
				switch n.Op {
				case token.ADD, token.SUB, token.LSS, token.GTR,
					token.LEQ, token.GEQ, token.EQL, token.NEQ:
					checkBareLiteral(p, info, n.X)
					checkBareLiteral(p, info, n.Y)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkBareLiteral(p, info, v)
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						checkBareLiteral(p, info, kv.Value)
					} else {
						checkBareLiteral(p, info, el)
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, rhs := range n.Rhs {
						checkBareLiteral(p, info, rhs)
					}
				}
			case *ast.ReturnStmt:
				for _, e := range n.Results {
					checkBareLiteral(p, info, e)
				}
			}
			return true
		})
	}
}

// checkSimTimeCall handles both conversion expressions (sim.Time(x),
// time.Duration(t)) and ordinary calls (literal arguments).
func checkSimTimeCall(p *Pass, info *types.Info, call *ast.CallExpr) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) != 1 {
			return
		}
		arg := call.Args[0]
		at := info.TypeOf(arg)
		switch {
		case isSimTime(target):
			checkToSimTimeConversion(p, info, call, arg, at)
		case isDuration(target) && isSimTime(at):
			p.Reportf(call.Pos(),
				"raw conversion time.Duration(%s) from sim.Time; write %s.Duration() so the unit transfer is explicit",
				exprString(arg), exprString(arg))
		}
		return
	}
	// Ordinary call: every argument contextually typed sim.Time must
	// carry a unit, not be a bare literal.
	for _, arg := range call.Args {
		checkBareLiteral(p, info, arg)
	}
}

func checkToSimTimeConversion(p *Pass, info *types.Info, call *ast.CallExpr, arg ast.Expr, at types.Type) {
	if at == nil {
		return
	}
	if isDuration(at) {
		p.Reportf(call.Pos(),
			"raw conversion sim.Time(%s) from time.Duration; write sim.FromDuration(%s) so the unit transfer is explicit",
			exprString(arg), exprString(arg))
		return
	}
	b, ok := at.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return // integer scaling like sim.Time(i) is dimensionless by convention
	}
	if callsSeconds(info, arg) {
		p.Reportf(call.Pos(),
			"sim.Time(%s) converts a *seconds* value to nanoseconds without scaling; use sim.FromSeconds", exprString(arg))
		return
	}
	if !carriesTimeUnit(info, arg) {
		p.Reportf(call.Pos(),
			"sim.Time(%s) truncates a raw float with no time-typed operand — if the value is seconds use sim.FromSeconds, otherwise derive it from a sim.Time/time.Duration quantity",
			exprString(arg))
	}
}

// checkBareLiteral flags a constant expression contextually typed as
// sim.Time that contains no reference to any sim.Time-typed name (unit
// constant, variable, conversion): a bare `5` means five nanoseconds,
// which is never what a hand-written literal intends. Zero (and -1,
// the conventional "no limit" sentinel) are exempt.
func checkBareLiteral(p *Pass, info *types.Info, e ast.Expr) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || !isSimTime(tv.Type) {
		return
	}
	if v, ok := constant.Int64Val(tv.Value); ok && (v == 0 || v == -1) {
		return
	}
	if carriesTimeUnit(info, e) {
		return
	}
	p.Reportf(e.Pos(),
		"bare numeric literal %s used as sim.Time means %s nanoseconds; write it against a unit (n*sim.Second, sim.Millisecond, ...) or sim.FromSeconds",
		tv.Value.ExactString(), tv.Value.ExactString())
}

// carriesTimeUnit reports whether the expression mentions any name or
// conversion of type sim.Time or time.Duration — i.e. the value is
// derived from a unit-carrying quantity rather than being raw.
func carriesTimeUnit(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && (isSimTime(obj.Type()) || isDuration(obj.Type())) {
				found = true
			}
		case *ast.SelectorExpr:
			if obj := info.Uses[n.Sel]; obj != nil && (isSimTime(obj.Type()) || isDuration(obj.Type())) {
				found = true
			}
		case *ast.CallExpr:
			if t := info.TypeOf(n); isSimTime(t) || isDuration(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

// callsSeconds reports whether the expression contains a .Seconds()
// call (a float value in seconds).
func callsSeconds(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok && sel.Sel.Name == "Seconds" && len(call.Args) == 0 {
			found = true
		}
		return !found
	})
	return found
}

// rawNanosFloat reports whether the expression contains float64(x)
// with x a sim.Time or time.Duration — a float carrying nanoseconds.
func rawNanosFloat(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() || len(call.Args) != 1 {
			return true
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
			return true
		}
		if at := info.TypeOf(call.Args[0]); isSimTime(at) || isDuration(at) {
			found = true
		}
		return !found
	})
	return found
}

// checkSecondsMix flags additive/comparison operators whose one side
// is a seconds-valued float (via .Seconds()) and whose other side is a
// nanoseconds-valued float (via float64(t)). Multiplicative operators
// are exempt: they are how unit conversions are written.
func checkSecondsMix(p *Pass, info *types.Info, b *ast.BinaryExpr) {
	switch b.Op {
	case token.ADD, token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	if t := info.TypeOf(b.X); t == nil {
		return
	} else if bt, ok := t.Underlying().(*types.Basic); !ok || bt.Info()&types.IsFloat == 0 {
		return
	}
	xSec, ySec := callsSeconds(info, b.X), callsSeconds(info, b.Y)
	xNs, yNs := rawNanosFloat(info, b.X), rawNanosFloat(info, b.Y)
	if (xSec && !xNs && yNs && !ySec) || (ySec && !yNs && xNs && !xSec) {
		p.Reportf(b.OpPos,
			"float %s mixes a .Seconds() value with a float64(<time>) nanosecond value; convert both sides to one unit first", b.Op)
	}
}

// isSimTime reports whether t is (an alias of) sim.Time.
func isSimTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Time" && isSimPackage(named.Obj().Pkg().Path())
}

// isDuration reports whether t is time.Duration.
func isDuration(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Duration" && named.Obj().Pkg().Path() == "time"
}

// isSimPackage reports whether pkgPath is the sim engine package.
func isSimPackage(pkgPath string) bool {
	return pkgPath == "taq/internal/sim"
}
