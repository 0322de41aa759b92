package lint

import (
	"go/ast"
	"go/types"
)

// ReachContractAnalyzer enforces the per-file determinism contracts
// (walltime, globalrand, maprange, floataccum) *transitively*: every function
// reachable over the conservative call graph from a //cohort:hotpath or
// //cohort:hotpath determinism root must be free of wall-clock reads, global
// randomness, unordered map iteration and float→cycle conversions — wherever
// it lives. The per-package analyzers bind only the contract packages; a
// helper in a cold package (a formatting utility, an experiment shim) that a
// hot or oracle function calls used to escape them entirely. This analyzer
// closes that hole: the contract follows the call, not the file.
var ReachContractAnalyzer = &Analyzer{
	Name: "reachcontract",
	Doc: "enforce the walltime/globalrand/maprange/floataccum contracts " +
		"transitively from //cohort:hotpath roots over the whole-program call graph",
	Run: runReachContract,
}

func runReachContract(pass *Pass) {
	reach, parent := pass.Graph.Reachable(HotFull, HotDeterminism)
	cycle := programCycleType(pass.Prog)
	for _, n := range pass.Graph.Nodes {
		if !reach[n] {
			continue
		}
		path := CallPath(parent, n)
		checkContracts(pass, n, cycle, path)
	}
}

// programCycleType resolves the sim.Cycle type for the floataccum contract:
// the real simulator package when present, else any loaded package named sim
// that defines Cycle (the golden-test trees).
func programCycleType(prog *Program) types.Type {
	if pkg := prog.Package("cohort/internal/sim"); pkg != nil {
		if obj := pkg.Types.Scope().Lookup("Cycle"); obj != nil {
			return obj.Type()
		}
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() != "sim" {
			continue
		}
		if obj := pkg.Types.Scope().Lookup("Cycle"); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// checkContracts scans one reachable node's own statements for contract
// violations.
func checkContracts(pass *Pass, n *CGNode, cycle types.Type, path string) {
	info := n.Pkg.Info
	root := ast.Node(n.Body)
	if n.Lit != nil {
		root = n.Lit.Body
	}
	if root == nil {
		return
	}
	ast.Inspect(root, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false // nested literal: its node is reachable on its own edge
		}
		switch node := x.(type) {
		case *ast.SelectorExpr:
			fn, ok := info.Uses[node.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(node.Pos(), "wall-clock read time.%s reachable from a hot-path root (%s); "+
						"simulated time must come from the engine cycle counter", fn.Name(), path)
				}
			case "math/rand", "math/rand/v2":
				if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
					return true
				}
				if !randConstructors[fn.Name()] {
					pass.Reportf(node.Pos(), "global rand.%s reachable from a hot-path root (%s); "+
						"thread an explicitly seeded generator instead", fn.Name(), path)
				}
			}
		case *ast.RangeStmt:
			t := info.TypeOf(node.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			var body *ast.BlockStmt
			if n.Lit != nil {
				body = n.Lit.Body
			} else {
				body = n.Body
			}
			if collectThenSort(info, node, body) {
				return true
			}
			pass.Reportf(node.Pos(), "map range reachable from a hot-path root (%s); "+
				"iteration order differs between runs — sort the keys first", path)
		case *ast.CallExpr:
			if cycle == nil || len(node.Args) != 1 {
				return true
			}
			tv, ok := info.Types[node.Fun]
			if !ok || !tv.IsType() || !types.Identical(tv.Type, cycle) {
				return true
			}
			if src := floatSourceInfo(info, node.Args[0]); src != nil {
				pass.Reportf(node.Pos(), "floating-point value converted into sim.Cycle "+
					"reachable from a hot-path root (%s); cycle arithmetic must stay integer", path)
			}
		}
		return true
	})
}
