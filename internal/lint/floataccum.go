package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// FloatAccumAnalyzer flags floating-point values flowing into the sim.Cycle
// domain. Cycle and latency arithmetic is exact 64-bit integer math end to
// end; a float64 detour (averages, ratios, scaling factors) rounds, and the
// rounding — while IEEE-deterministic for one binary — makes results depend
// on expression shape and breaks the exact-arithmetic WCML accounting the
// analysis bounds are checked against. Convert in the integer domain
// (multiply/divide with explicit rounding) instead.
var FloatAccumAnalyzer = &Analyzer{
	Name: "floataccum",
	Doc: "forbid converting floating-point expressions into sim.Cycle " +
		"(cycle/latency arithmetic must stay in exact integer math)",
	Run: runFloatAccum,
}

func runFloatAccum(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		cycle := lookupCycleType(pkg.Types)
		if cycle == nil {
			continue // package neither defines nor imports sim.Cycle
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				tv, ok := pkg.Info.Types[call.Fun]
				if !ok || !tv.IsType() || !types.Identical(tv.Type, cycle) {
					return true
				}
				if src := floatSourceInfo(pkg.Info, call.Args[0]); src != nil {
					pass.Reportf(call.Pos(), "floating-point value converted into sim.Cycle; "+
						"cycle/latency arithmetic must stay in exact integer math")
				}
				return true
			})
		}
	}
}

// lookupCycleType finds the sim.Cycle named type visible to this package:
// its own definition when the package is internal/sim, or the imported one.
func lookupCycleType(pkg *types.Package) types.Type {
	scope := pkg.Scope()
	if pkg.Path() == "cohort/internal/sim" {
		if obj := scope.Lookup("Cycle"); obj != nil {
			return obj.Type()
		}
		return nil
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == "cohort/internal/sim" {
			if obj := imp.Scope().Lookup("Cycle"); obj != nil {
				return obj.Type()
			}
		}
	}
	return nil
}

// floatSourceInfo returns the first floating-point-typed expression reachable
// from e by unwrapping integer conversions and parens, or nil when e is
// integer all the way down. Exact constant expressions (sim.Cycle(1e6)) are
// not flagged: they lose nothing. Shared with reachcontract, so it takes the
// bare type info.
func floatSourceInfo(info *types.Info, e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	if tv.Value != nil {
		if v := constant.ToInt(tv.Value); v.Kind() == constant.Int {
			return nil // exact integer constant, however written
		}
	}
	if isFloat(tv.Type) {
		return e
	}
	// Unwrap a nested conversion: sim.Cycle(int64(x*1.5)) still rounds.
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if ftv, ok := info.Types[call.Fun]; ok && ftv.IsType() {
			return floatSourceInfo(info, call.Args[0])
		}
	}
	return nil
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
