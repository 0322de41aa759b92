package lint

import (
	"go/ast"
	"go/types"
)

// GoLeakAnalyzer requires every `go` statement in non-test code to have a
// statically visible join or cancel path. A goroutine with neither is a leak
// the moment its spawner returns: it pins memory and — worse, for this
// repository — keeps mutating shared state after the run that spawned it has
// published canonical results. The two long-lived goroutines the repo
// already owns model the sanctioned shapes: parallel.Map joins its workers
// with WaitGroup.Wait before returning, and obs.StartDebugServer hands the
// serve goroutine to a *DebugServer whose Close stops it.
//
// A spawn passes if any of these joins is visible:
//
//   - the spawning function calls (*sync.WaitGroup).Wait;
//   - the spawning function receives from a channel, ranges over one, or
//     contains a select statement (goroutine completion is communicated);
//   - the spawned function or the spawner accepts a context.Context (the
//     caller holds the cancel path);
//   - the spawner's receiver or one of its result types declares
//     Close/Shutdown/Stop (lifecycle-owner: the goroutine dies with the
//     returned object), or the spawned call's receiver does.
//
// Everything else needs //cohort:allow goleak with a reason — deliberately
// fire-and-forget work must say so where reviewers can see it.
var GoLeakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc: "every go statement must have a statically visible join or cancel path " +
		"(WaitGroup.Wait, channel receive/select, context.Context, or owner Close/Shutdown/Stop)",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			inspectWithStack(f, func(x ast.Node, stack []ast.Node) bool {
				gs, ok := x.(*ast.GoStmt)
				if !ok {
					return true
				}
				encl := enclosingFunc(stack)
				if encl == nil {
					return true // package-level var initializer; unreachable shape
				}
				if spawnJoined(info, gs, encl) {
					return true
				}
				pass.Reportf(gs.Pos(), "goroutine has no statically visible join or cancel path "+
					"(no WaitGroup.Wait, channel receive or select in the spawner, no context.Context, "+
					"and no owner with Close/Shutdown/Stop); a leak once the spawner returns")
				return true
			})
		}
	}
}

// spawnJoined applies the join heuristics for one go statement.
func spawnJoined(info *types.Info, gs *ast.GoStmt, encl ast.Node) bool {
	body := funcBody(encl)
	if body == nil {
		return false
	}

	// Join via WaitGroup.Wait / channel receive / range-over-channel /
	// select anywhere in the spawning function (nested literals included:
	// a join deferred via closure still joins).
	joined := false
	ast.Inspect(body, func(x ast.Node) bool {
		if joined {
			return false
		}
		switch n := x.(type) {
		case *ast.SelectStmt:
			joined = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				joined = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					joined = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Name() == "Wait" {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if isSyncType(sig.Recv().Type(), "WaitGroup") {
						joined = true
					}
				}
			}
		}
		return true
	})
	if joined {
		return true
	}

	// Cancel via context: the spawned literal or the spawner accepts a
	// context.Context parameter.
	if sigHasContext(info, encl) {
		return true
	}
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		if t := info.TypeOf(lit); t != nil {
			if sig, ok := t.(*types.Signature); ok && signatureHasContext(sig) {
				return true
			}
		}
	}

	// Lifecycle owner: the spawner's receiver or a result type — or the
	// spawned call's receiver — declares Close/Shutdown/Stop.
	if fd, ok := encl.(*ast.FuncDecl); ok {
		if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
			if sig, ok := obj.Type().(*types.Signature); ok {
				if sig.Recv() != nil && hasCloseMethod(sig.Recv().Type()) {
					return true
				}
				for i := 0; i < sig.Results().Len(); i++ {
					if hasCloseMethod(sig.Results().At(i).Type()) {
						return true
					}
				}
			}
		}
	}
	if sel, ok := ast.Unparen(gs.Call.Fun).(*ast.SelectorExpr); ok {
		if recv := info.TypeOf(sel.X); recv != nil && hasCloseMethod(recv) {
			return true
		}
	}
	return false
}

// sigHasContext reports whether the enclosing function's own signature has a
// context.Context parameter.
func sigHasContext(info *types.Info, encl ast.Node) bool {
	switch fn := encl.(type) {
	case *ast.FuncDecl:
		if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
			if sig, ok := obj.Type().(*types.Signature); ok {
				return signatureHasContext(sig)
			}
		}
	case *ast.FuncLit:
		if t := info.TypeOf(fn); t != nil {
			if sig, ok := t.(*types.Signature); ok {
				return signatureHasContext(sig)
			}
		}
	}
	return false
}

func signatureHasContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
