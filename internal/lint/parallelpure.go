package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ParallelPureAnalyzer checks the purity contract of jobs handed to the
// deterministic evaluation engine: a closure passed to parallel.Map or
// parallel.MapErr runs concurrently on an unspecified worker, so the only
// state it may write outside its own locals is its index-addressed result
// slot — captured[i] where captured is a slice or array and i is the
// closure's job-index parameter. Any other write through a captured variable
// (a shared counter, a captured map, a slice cell picked by a non-index
// expression, a dereferenced captured pointer) is a data race by
// construction and, even when the race detector misses the interleaving,
// makes the result depend on worker scheduling. This is the static
// complement to `go test -race` and the serial-equivalence suites: the race
// never compiles instead of occasionally reproducing.
//
// Approximations (documented in DESIGN.md §13): only function *literals*
// passed directly at the call site are checked — a job function built
// elsewhere and passed as a value is not traced to its definition — and
// mutation through method calls on captured receivers is not modelled.
var ParallelPureAnalyzer = &Analyzer{
	Name: "parallelpure",
	Doc: "closures passed to parallel.Map/MapErr may write only through their " +
		"index-addressed result slot (captured[i] with i the job-index parameter)",
	Run: runParallelPure,
}

func runParallelPure(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || !isParallelMap(fn) {
					return true
				}
				lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
				if !ok {
					return true
				}
				checkJobPurity(pass, pkg.Info, lit, fn.Name())
				return true
			})
		}
	}
}

// isParallelMap matches parallel.Map / parallel.MapErr from the repo's
// evaluation engine (and, for the golden tests, any package named parallel).
func isParallelMap(fn *types.Func) bool {
	if fn.Pkg() == nil || (fn.Name() != "Map" && fn.Name() != "MapErr") {
		return false
	}
	path := fn.Pkg().Path()
	return path == "cohort/internal/parallel" || path == "parallel" || strings.HasSuffix(path, "/parallel")
}

// checkJobPurity walks one job closure (including nested literals, which run
// inside the same job) and reports writes through captured variables that do
// not target the closure's index-addressed slot.
func checkJobPurity(pass *Pass, info *types.Info, lit *ast.FuncLit, callee string) {
	idxParam := jobIndexParam(info, lit)
	captured := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil {
			return nil
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return nil
		}
		// Declared outside the literal ⇒ captured. Position containment is
		// exact: every local, parameter and named result of the literal is
		// declared within its source extent.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return nil
		}
		return obj
	}

	reportWrite := func(pos token.Pos, obj types.Object, via string) {
		pass.Reportf(pos, "parallel.%s job writes captured variable %q%s; jobs may only write "+
			"their index-addressed result slot (captured[i] with i the job-index parameter)",
			callee, obj.Name(), via)
	}

	checkLHS := func(lhs ast.Expr) {
		root, indexedBySlot, viaPointer := writeTarget(info, lhs, idxParam)
		if root == nil {
			return
		}
		obj := captured(root)
		if obj == nil {
			return
		}
		if indexedBySlot {
			return // captured[i]… — the sanctioned result slot
		}
		via := ""
		if viaPointer {
			via = " through a pointer"
		}
		reportWrite(lhs.Pos(), obj, via)
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkLHS(lhs)
			}
		case *ast.IncDecStmt:
			checkLHS(x.X)
		case *ast.RangeStmt:
			if x.Key != nil {
				checkLHS(x.Key)
			}
			if x.Value != nil {
				checkLHS(x.Value)
			}
		}
		return true
	})
}

// jobIndexParam returns the object of the closure's first int parameter —
// the job index parallel.Map feeds it — or nil.
func jobIndexParam(info *types.Info, lit *ast.FuncLit) types.Object {
	params := lit.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return nil
	}
	name := params.List[0].Names[0]
	obj := info.Defs[name]
	if obj == nil {
		return nil
	}
	if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	return obj
}

// writeTarget decomposes an assignment target into its root identifier plus
// two facts: whether the access path goes through an index expression over a
// slice/array whose index is exactly the job-index parameter (the sanctioned
// slot), and whether it dereferences a pointer.
func writeTarget(info *types.Info, e ast.Expr, idxParam types.Object) (root *ast.Ident, indexedBySlot, viaPointer bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, indexedBySlot, viaPointer
		case *ast.SelectorExpr:
			// Selecting through an embedded pointer or a field: keep walking
			// toward the base. A selection on a captured *pointer* mutates
			// shared state unless an index slot intervenes.
			if sel, ok := info.Selections[x]; ok && sel.Indirect() {
				viaPointer = true
			}
			e = x.X
		case *ast.IndexExpr:
			t := info.TypeOf(x.X)
			if t == nil {
				return nil, false, viaPointer
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				if isJobIndex(info, x.Index, idxParam) {
					indexedBySlot = true
				}
			case *types.Map:
				// Map writes are never slot-addressed: concurrent map writes
				// race regardless of key.
			}
			e = x.X
		case *ast.StarExpr:
			viaPointer = true
			e = x.X
		default:
			return nil, false, viaPointer
		}
	}
}

// isJobIndex reports whether the index expression is the job-index parameter
// itself (possibly parenthesized or converted).
func isJobIndex(info *types.Info, idx ast.Expr, param types.Object) bool {
	if param == nil {
		return false
	}
	idx = ast.Unparen(idx)
	if call, ok := idx.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return isJobIndex(info, call.Args[0], param) // int64(i) etc.
		}
	}
	id, ok := idx.(*ast.Ident)
	return ok && info.Uses[id] == param
}
