package analysis

// noblock enforces the hotpath scheduling contract: functions in the
// //taq:hotpath closure, in whatever package, must never block or
// yield — no channel ops, no select, no goroutine launches, no sync
// lock acquisitions, no wall-clock reads or syscalls. The emu engine
// deliberately serializes real-time callbacks through one mutex and
// reads the wall clock once per batch; those two lines carry
// //taq:allow noblock, which the audit flags once they go stale
// (lockdiscipline checks the mutex's pairing).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoBlock flags blocking operations in hotpath-closure functions.
var NoBlock = &Analyzer{
	Name: "noblock",
	Doc:  "//taq:hotpath closure functions must not block (channels, select, sync locks, time.Now, syscalls)",
	Run:  runNoBlock,
}

// blockingTimeFuncs are the package-level time functions that read the
// wall clock or arm real timers. Methods on time.Time/Duration are
// pure arithmetic and stay legal.
var blockingTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// blockingSyncMethods are the sync methods that can park a goroutine.
var blockingSyncMethods = map[string]bool{
	"Lock": true, "RLock": true, "Wait": true, "Do": true,
}

func runNoBlock(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, n := range pass.Prog.HotNodes() {
		if n.Pkg == pass.Pkg {
			checkNoBlock(pass, n)
		}
	}
}

func checkNoBlock(pass *Pass, n *FuncNode) {
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false // the literal's body is its own node
		case *ast.SendStmt:
			hotf(pass, n, x.Pos(), "channel send may block")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				hotf(pass, n, x.Pos(), "channel receive may block")
			}
		case *ast.SelectStmt:
			hotf(pass, n, x.Pos(), "select may block")
		case *ast.GoStmt:
			hotf(pass, n, x.Pos(), "go statement hands work to the scheduler")
		case *ast.RangeStmt:
			if _, ok := underlyingOf(info, x.X).(*types.Chan); ok {
				hotf(pass, n, x.Pos(), "range over channel blocks")
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, n, x)
		}
		return true
	})
}

func checkBlockingCall(pass *Pass, n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = usedFunc(info, fun)
	case *ast.SelectorExpr:
		callee, _ = usedFunc(info, fun.Sel)
	}
	if callee == nil || callee.Pkg() == nil {
		return
	}
	name := callee.Name()
	switch callee.Pkg().Path() {
	case "sync":
		if blockingSyncMethods[name] {
			hotf(pass, n, call.Pos(), "sync acquisition %s may block", exprString(call))
		}
	case "time":
		if callee.Type().(*types.Signature).Recv() == nil && blockingTimeFuncs[name] {
			hotf(pass, n, call.Pos(), "wall-clock call %s", exprString(call))
		}
	case "os", "syscall", "net":
		hotf(pass, n, call.Pos(), "%s performs a syscall", exprString(call))
	case "io":
		// io's own interface methods (Writer.Write etc.) reach real IO.
		if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			hotf(pass, n, call.Pos(), "io interface call %s may block on real IO", exprString(call))
		}
	case "runtime":
		if name == "Gosched" || name == "GC" {
			hotf(pass, n, call.Pos(), "runtime.%s yields the processor", name)
		}
	}
}
