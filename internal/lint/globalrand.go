package lint

import (
	"go/ast"
	"go/types"
)

// randConstructors are the math/rand package-level functions that build an
// explicitly seeded generator rather than drawing from the shared global
// source. Everything else at package level is forbidden.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewChaCha8": true,
	"NewPCG":     true,
}

// GlobalRandAnalyzer flags the top-level convenience functions of math/rand
// and math/rand/v2 (rand.Intn, rand.Float64, rand.Shuffle, …). Those draw
// from a process-global source that is auto-seeded and shared across
// goroutines, so results differ between runs. Simulator code must thread an
// explicitly seeded generator (trace.RNG or a *rand.Rand built with
// rand.New(rand.NewSource(seed))) through its configuration.
var GlobalRandAnalyzer = &Analyzer{
	Name: "globalrand",
	Doc: "forbid the global math/rand top-level functions; randomness must " +
		"flow from an explicitly seeded generator passed through config",
	Run: runGlobalRand,
}

func runGlobalRand(pass *Pass) {
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
				path := fn.Pkg().Path()
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				// Methods on *rand.Rand (seeded instances) are fine; only
				// package-level functions touch the global source.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if randConstructors[fn.Name()] {
					return true
				}
				pass.Reportf(sel.Pos(), "global rand.%s draws from the shared auto-seeded source; "+
					"use an explicitly seeded *rand.Rand or trace.RNG passed through config", fn.Name())
				return true
			})
		}
	}
}
