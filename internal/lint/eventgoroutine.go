package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EventGoroutineAnalyzer flags goroutine spawns and channel operations inside
// the event dispatch of the sim.Engine. Every event is typed, so the only
// code the engine runs is a sim.Handler's HandleEvent method. The engine is
// single-threaded by design: events run in (cycle, insertion seq) order, and
// that total order is the determinism guarantee. A goroutine forked from a
// handler races with the event loop, and a channel handoff makes event
// effects depend on the Go scheduler — both reintroduce exactly the
// nondeterminism the engine exists to remove.
var EventGoroutineAnalyzer = &Analyzer{
	Name: "eventgoroutine",
	Doc: "forbid goroutine spawns and channel operations inside HandleEvent " +
		"methods that satisfy sim.Handler (the event loop is single-threaded by contract)",
	Run: runEventGoroutine,
}

// simHandler returns the sim.Handler interface when pkg imports the sim
// package directly, else nil: a method can only satisfy sim.Handler by
// naming sim.Cycle and sim.Kind in its signature.
func simHandler(pkg *types.Package) *types.Interface {
	for _, imp := range pkg.Imports() {
		if imp.Path() != "cohort/internal/sim" {
			continue
		}
		if obj, ok := imp.Scope().Lookup("Handler").(*types.TypeName); ok {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}

func runEventGoroutine(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		iface := simHandler(pkg.Types)
		if iface == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || fd.Name.Name != "HandleEvent" {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if recv := fn.Type().(*types.Signature).Recv(); types.Implements(recv.Type(), iface) {
					checkEventBody(pass, pkg.Info, fd.Body)
				}
			}
		}
	}
}

// checkEventBody reports concurrency constructs anywhere under an event
// handler body, including nested function literals (they run, or escape,
// from inside the event).
func checkEventBody(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "goroutine spawned inside a sim.Handler event dispatch; "+
				"the event loop is single-threaded — schedule another event instead")
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send inside a sim.Handler event dispatch; "+
				"event effects must not depend on the Go scheduler")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pass.Reportf(x.Pos(), "channel receive inside a sim.Handler event dispatch; "+
					"event effects must not depend on the Go scheduler")
			}
		case *ast.SelectStmt:
			pass.Reportf(x.Pos(), "select inside a sim.Handler event dispatch; "+
				"event effects must not depend on the Go scheduler")
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pass.Reportf(x.Pos(), "range over channel inside a sim.Handler event dispatch; "+
						"event effects must not depend on the Go scheduler")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					pass.Reportf(x.Pos(), "channel close inside a sim.Handler event dispatch; "+
						"event effects must not depend on the Go scheduler")
				}
			}
		}
		return true
	})
}
