package lint

import (
	"go/ast"
	"go/types"
)

// MapRangeAnalyzer flags `for ... range m` over a map. Go randomizes map
// iteration order per run, so any map range whose body is order-sensitive
// breaks bit-reproducibility. Two forms are accepted without annotation:
//
//   - the collect-then-sort idiom, where every statement in the loop body
//     appends to slices that the enclosing function later sorts;
//   - loops explicitly annotated //cohort:allow maprange: <reason>, asserting
//     the body is order-insensitive (pure counting, set union, …).
var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc: "forbid ranging over maps unless keys are sorted or the body is " +
		"declared order-insensitive (map iteration order differs between runs)",
	Run: runMapRange,
}

func runMapRange(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pkg.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if collectThenSort(pkg.Info, rs, funcBody(enclosingFunc(stack))) {
					return true
				}
				pass.Reportf(rs.Pos(), "range over map %s is non-deterministic; sort the keys first, "+
					"or annotate the loop with //cohort:allow maprange: <reason> if the body is order-insensitive",
					typeLabel(rs.X))
				return true
			})
		}
	}
}

// typeLabel renders the ranged expression compactly for the message.
func typeLabel(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return "expression"
}

// collectThenSort recognizes the safe idiom: every statement of the range
// body is `s = append(s, ...)` and the enclosing function body sorts each
// such s after the loop. Shared with the whole-program reachcontract
// analyzer, so it takes the bare type info rather than a Pass.
func collectThenSort(info *types.Info, rs *ast.RangeStmt, body *ast.BlockStmt) bool {
	if body == nil || len(rs.Body.List) == 0 {
		return false
	}
	var targets []types.Object
	for _, st := range rs.Body.List {
		obj := appendTarget(info, st)
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	for _, obj := range targets {
		if !sortedAfter(info, body, rs, obj) {
			return false
		}
	}
	return true
}

// appendTarget returns the object of x in a statement of the exact form
// `x = append(x, ...)`, or nil.
func appendTarget(info *types.Info, st ast.Stmt) types.Object {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil
	}
	if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil
	}
	return info.Uses[lhs]
}

// sortedAfter reports whether the function body contains, after the range
// statement, a recognised sorting call with obj as its (first) argument.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	if body == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if !isSortFunc(fn) || len(call.Args) == 0 {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && info.Uses[arg] == obj {
			found = true
		}
		return true
	})
	return found
}

func isSortFunc(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Strings", "Float64s":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
