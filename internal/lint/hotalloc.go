package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer is the static complement to TestAllocationCeiling: no
// function reachable from a //cohort:hotpath root may contain an allocation
// site. The runtime ceiling catches a regression only on the benchmarked
// workload and only after the fact; this analyzer rejects the allocation at
// review time, on every path the conservative call graph can see.
//
// Flagged constructs: make/new, slice and map composite literals, composite
// literals whose address escapes (&T{…}), append, function literals (closure
// capture records), bound method values, string concatenation and
// string↔[]byte conversions, map writes (bucket growth), boxing into an
// interface (explicit conversions, call arguments, assignments, returns) and
// variadic calls (argument-slice allocation). Arguments to panic are skipped:
// a panic aborts the run, so its formatting cost is not steady-state.
//
// Amortized or warm-up allocations that are part of the design (queue
// backing growth, pooled-record growth) carry //cohort:allow hotalloc
// annotations at the site, keeping every waiver reviewable.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid allocation sites in functions reachable from //cohort:hotpath " +
		"roots (static complement to the runtime allocation ceiling)",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	reach, parent := pass.Graph.Reachable(HotFull)
	for _, n := range pass.Graph.Nodes {
		if !reach[n] {
			continue
		}
		path := CallPath(parent, n)
		checkAllocs(pass, n, path)
	}
}

// checkAllocs scans one node's own statements for allocation sites.
func checkAllocs(pass *Pass, n *CGNode, path string) {
	info := n.Pkg.Info
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in hot path (%s)", what, path)
	}
	root := ast.Node(n.Body)
	if n.Lit != nil {
		root = n.Lit.Body
	}
	if root == nil {
		return
	}
	// Selectors used as the Fun of a call are method calls, not method
	// values; Inspect visits the call before its Fun, so pre-marking here is
	// enough for the method-value check below.
	calledSelectors := make(map[ast.Expr]bool)
	ast.Inspect(root, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			report(lit.Pos(), "function literal allocates a closure")
			return false // the literal's own body belongs to its node
		}
		switch node := x.(type) {
		case *ast.CallExpr:
			calledSelectors[ast.Unparen(node.Fun)] = true
			return checkCallAlloc(pass, info, node, report)
		case *ast.CompositeLit:
			checkCompositeAlloc(info, node, report)
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if cl, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(cl.Pos(), "composite literal escapes to the heap (&T{…})")
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(info.TypeOf(node)) && !isConstExpr(info, node) {
				report(node.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			checkAssignAlloc(info, node, report)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(node.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
				report(node.Pos(), "map write may grow the map")
			}
		case *ast.ReturnStmt:
			checkReturnAlloc(info, n, node, report)
		case *ast.SelectorExpr:
			// Bound method value (x.M used as a value, not called):
			// allocates the bound-receiver closure.
			if sel, ok := info.Selections[node]; ok && sel.Kind() == types.MethodVal && !calledSelectors[node] {
				report(node.Pos(), "method value allocates its bound receiver")
			}
		}
		return true
	})
}

// checkCallAlloc handles builtins, conversions, boxing at call boundaries and
// variadic argument slices. Returns false to prune traversal (panic args).
func checkCallAlloc(pass *Pass, info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) bool {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return false // aborting path: formatting cost is not steady-state
			case "make":
				report(call.Pos(), "make allocates")
				return true
			case "new":
				report(call.Pos(), "new allocates")
				return true
			case "append":
				report(call.Pos(), "append may grow its backing array")
				return true
			}
			return true
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Conversion: flag boxing and string↔byte-slice copies.
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		checkConversionAlloc(info, call.Pos(), dst, src, call.Args[0], report)
		return true
	}
	// Ordinary call: check argument boxing against the signature.
	sigT := info.TypeOf(fun)
	sig, ok := sigT.(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(np - 1).Type() // s... passes the slice through
			} else {
				pt = params.At(np - 1).Type().(*types.Slice).Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		checkBoxing(info, arg, pt, report)
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= np {
		report(call.Pos(), "variadic call allocates its argument slice")
	}
	return true
}

// checkConversionAlloc flags conversions that allocate.
func checkConversionAlloc(info *types.Info, pos token.Pos, dst, src types.Type, arg ast.Expr, report func(token.Pos, string)) {
	if types.IsInterface(dst) {
		checkBoxing(info, arg, dst, report)
		return
	}
	ds, dOK := dst.Underlying().(*types.Basic)
	if dOK && ds.Info()&types.IsString != 0 {
		if sl, ok := src.Underlying().(*types.Slice); ok {
			if isByteOrRune(sl.Elem()) {
				report(pos, "[]byte/[]rune→string conversion copies")
			}
		}
		return
	}
	if sl, ok := dst.Underlying().(*types.Slice); ok && isByteOrRune(sl.Elem()) {
		if ss, ok := src.Underlying().(*types.Basic); ok && ss.Info()&types.IsString != 0 {
			report(pos, "string→[]byte/[]rune conversion copies")
		}
	}
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// checkBoxing reports arg when assigning it to an interface-typed slot
// requires heap-boxing the value. Pointer-shaped values (pointers, channels,
// maps, funcs, slices of zero… no: slices are three words) — precisely:
// pointers, channels, maps, funcs and unsafe pointers fit the interface data
// word without allocating; everything else concrete is boxed.
func checkBoxing(info *types.Info, arg ast.Expr, target types.Type, report func(token.Pos, string)) {
	if !types.IsInterface(target) {
		return
	}
	tv, ok := info.Types[arg]
	if !ok || tv.IsNil() {
		return
	}
	if tv.Value != nil {
		return // constant conversions are backed by static descriptors
	}
	at := tv.Type
	if at == nil || types.IsInterface(at) || isPointerShaped(at) {
		return
	}
	report(arg.Pos(), "interface conversion boxes a "+at.Underlying().String()+" value")
}

func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// checkCompositeAlloc flags composite literals of slice or map type; value
// struct and array literals stay on the stack unless their address escapes
// (handled at the &T{…} site).
func checkCompositeAlloc(info *types.Info, cl *ast.CompositeLit, report func(token.Pos, string)) {
	t := info.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		report(cl.Pos(), "slice literal allocates")
	case *types.Map:
		report(cl.Pos(), "map literal allocates")
	}
}

// checkAssignAlloc flags map writes and boxing on assignment.
func checkAssignAlloc(info *types.Info, as *ast.AssignStmt, report func(token.Pos, string)) {
	for _, lhs := range as.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
			report(lhs.Pos(), "map write may grow the map")
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.TypeOf(lhs)
		if lt == nil {
			continue
		}
		checkBoxing(info, as.Rhs[i], lt, report)
	}
}

// checkReturnAlloc flags boxing at return boundaries.
func checkReturnAlloc(info *types.Info, n *CGNode, ret *ast.ReturnStmt, report func(token.Pos, string)) {
	sig := nodeSignature(info, n)
	if sig == nil {
		return
	}
	res := sig.Results()
	if res.Len() != len(ret.Results) {
		return // bare return or single multi-value call: nothing to box directly
	}
	for i, e := range ret.Results {
		checkBoxing(info, e, res.At(i).Type(), report)
	}
}

func nodeSignature(info *types.Info, n *CGNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if t := info.TypeOf(n.Lit); t != nil {
			sig, _ := t.(*types.Signature)
			return sig
		}
	}
	return nil
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
