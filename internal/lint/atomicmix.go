package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMixAnalyzer enforces the all-or-nothing rule of sync/atomic: a field
// or variable whose address is ever passed to a sync/atomic function
// (atomic.AddInt64(&s.n, 1), atomic.LoadUint32(&flag), …) must be accessed
// through sync/atomic everywhere. A plain read racing an atomic write is
// undefined behaviour the race detector only catches on interleavings that
// actually execute — and on architectures with weak memory ordering the
// plain read can observe torn or stale values even when the race window is
// never hit in testing.
//
// Identity is the *types.Var of the field or variable, program-wide (the
// LoadProgram type-identity guarantee), so a field written atomically in
// internal/obs and read plainly from internal/experiments is caught. Typed
// atomics (atomic.Int64, atomic.Pointer[T]) are immune by construction —
// their value is unexported — and copies of them are syncmisuse findings.
//
// The analyzer sees non-test code only (the loaders skip _test.go by
// design); a test that prints a counter mid-run still races, but the fix
// belongs in the test, not the baseline.
var AtomicMixAnalyzer = &Analyzer{
	Name: "atomicmix",
	Doc: "variables accessed through sync/atomic anywhere must never also be " +
		"read or written plainly (mixed access defeats the atomicity contract)",
	Run: runAtomicMix,
}

// atomicUse records one sync/atomic call site touching an object.
type atomicUse struct {
	fn  string
	pos token.Pos
}

func runAtomicMix(pass *Pass) {
	fset := pass.Prog.Fset

	// Pass 1: every object whose address flows into a sync/atomic call, and
	// the positions of the &x arguments (excluded from the plain-use scan).
	atomicObjs := make(map[types.Object]atomicUse)
	display := make(map[types.Object]string)
	atomicArgPos := make(map[token.Pos]bool)
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			info := pkg.Info
			ast.Inspect(f, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // typed-atomic methods: no address-taken raw field
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					obj := rootObject(info, un.X)
					if obj == nil {
						continue
					}
					if _, exists := atomicObjs[obj]; !exists {
						atomicObjs[obj] = atomicUse{fn: "atomic." + fn.Name(), pos: call.Pos()}
						display[obj] = renderAccessName(info, un.X, obj)
					}
					markExprIdents(un.X, atomicArgPos)
				}
				return true
			})
		}
	}
	if len(atomicObjs) == 0 {
		return
	}

	// Pass 2: any other appearance of those objects is a plain access.
	type finding struct {
		pos token.Pos
		obj types.Object
	}
	var plain []finding
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			info := pkg.Info
			ast.Inspect(f, func(x ast.Node) bool {
				id, ok := x.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				if _, tracked := atomicObjs[obj]; !tracked {
					return true
				}
				if atomicArgPos[id.Pos()] {
					return true // the sanctioned &x inside the atomic call
				}
				plain = append(plain, finding{pos: id.Pos(), obj: obj})
				return true
			})
		}
	}

	sort.Slice(plain, func(i, j int) bool { return plain[i].pos < plain[j].pos })
	for _, p := range plain {
		use := atomicObjs[p.obj]
		pass.Reportf(p.pos, "%s is accessed atomically (%s at %s) but read/written plainly here; "+
			"every access must go through sync/atomic", display[p.obj], use.fn, fmtPos(fset, use.pos))
	}
}

// markExprIdents records the position of every identifier in the &x operand
// so pass 2 can skip the atomic call's own mention of the object.
func markExprIdents(e ast.Expr, seen map[token.Pos]bool) {
	ast.Inspect(e, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			seen[id.Pos()] = true
		}
		return true
	})
}

// renderAccessName renders the accessed object for diagnostics: fields as
// "Type.field", variables by their (package-qualified) name.
func renderAccessName(info *types.Info, e ast.Expr, obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if _, name := lockClass(info, sel); name != "" {
				return name
			}
		}
		return v.Name()
	}
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
