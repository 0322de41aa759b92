package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package time functions that read or depend on the
// wall clock. Pure constructors and constants (time.Duration arithmetic,
// time.Unix on fixed inputs) are fine; anything sampling the host clock makes
// simulated behaviour depend on machine speed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallTimeAnalyzer flags wall-clock reads. Simulated time is sim.Cycle,
// advanced only by the event engine; host time leaking into simulator state
// (timestamps, timeouts, rate limits) destroys reproducibility.
var WallTimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc: "forbid time.Now/time.Since and friends in simulator code " +
		"(simulated time is sim.Cycle; wall-clock reads are machine-dependent)",
	Run: runWallTime,
}

func runWallTime(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "wall-clock read time.%s in simulator code; "+
						"simulated time must come from the sim.Engine cycle counter", fn.Name())
				}
				return true
			})
		}
	}
}
