// Package lint is a small static-analysis framework plus the CoHoRT
// determinism lint suite. The simulator's headline property — every run is
// bit-reproducible — is a contract the Go compiler cannot check: a stray map
// iteration in a hot path, a wall-clock read, or an unseeded random source
// would silently produce runs that differ between executions while every test
// still passes. The analyzers in this package enforce that contract
// mechanically: per package over the contract packages (the simulator,
// internal/{sim,core,bus,cache,coherence,memctrl,sched,trace,opt}, plus
// internal/{invariant,model,obs}), and over the whole program along the
// conservative call graph. Vet is the driver behind cmd/cohort-vet.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library only, so
// the repository stays dependency-free. Run the suite with the cohort-vet
// command:
//
//	go run ./cmd/cohort-vet ./...
//
// A diagnostic can be suppressed where the flagged construct is provably
// order-insensitive by annotating the flagged (or preceding) line with
//
//	//cohort:allow <analyzer-name>: <reason>
//
// The form — a registered analyzer name, the colon, a non-empty reason — is
// machine-checked by the allowdoc analyzer.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of a loaded Program: the conservative
// call graph built over it, the packages in scope, and Reportf.
// Per-package analyzers loop over Pkgs; whole-program analyzers walk
// Prog.Pkgs and Graph, so reachability rather than the scope decides what
// they check.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Graph    *Graph
	// Pkgs are the packages in scope for per-package checks: the contract
	// packages under cohort-vet, the whole tree in the golden tests.
	Pkgs []*Package

	diags []Diagnostic
}

// Analyzer is one determinism check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow-annotations.
	Name string
	// Doc is a one-paragraph description of the rule and its rationale.
	Doc string
	// Run reports diagnostics via pass.Reportf.
	Run func(pass *Pass)
}

// Reportf records a diagnostic unless a //cohort:allow annotation naming
// this pass's analyzer covers its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	pp := p.Prog.Fset.Position(pos)
	if p.Prog.dirs.allow[allowKey{lineKey{pp.Filename, pp.Line}, p.Analyzer.Name}] {
		return
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full determinism suite in a stable order: the
// per-package analyzers first, then the whole-program analyzers built on the
// conservative call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRangeAnalyzer,
		WallTimeAnalyzer,
		GlobalRandAnalyzer,
		EventGoroutineAnalyzer,
		FloatAccumAnalyzer,
		ExhaustiveAnalyzer,
		AllowDocAnalyzer,
		HotAllocAnalyzer,
		ReachContractAnalyzer,
		ParallelPureAnalyzer,
		LockOrderAnalyzer,
		AtomicMixAnalyzer,
		GoLeakAnalyzer,
		CtxFlowAnalyzer,
		SyncMisuseAnalyzer,
	}
}

// Run executes one analyzer over prog, with g its call graph and scope the
// packages in scope, and returns the diagnostics sorted by file position.
func Run(a *Analyzer, prog *Program, g *Graph, scope []*Package) []Diagnostic {
	pass := &Pass{Analyzer: a, Prog: prog, Graph: g, Pkgs: scope}
	a.Run(pass)
	fset := prog.Fset
	sort.Slice(pass.diags, func(i, j int) bool {
		pi, pj := fset.Position(pass.diags[i].Pos), fset.Position(pass.diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return pass.diags[i].Message < pass.diags[j].Message
	})
	return pass.diags
}

// contractPackages is the set of import paths bound by the determinism
// contract: the packages in scope for the per-package analyzers.
// Reporting/CLI packages (stats, experiments, vcd, cmd/*) may legitimately
// read the clock or format floats; simulator state may not. The
// whole-program analyzers are not limited by this set: reachability decides.
var contractPackages = map[string]bool{
	"cohort/internal/sim":       true,
	"cohort/internal/core":      true,
	"cohort/internal/bus":       true,
	"cohort/internal/cache":     true,
	"cohort/internal/coherence": true,
	"cohort/internal/memctrl":   true,
	"cohort/internal/sched":     true,
	"cohort/internal/trace":     true,
	"cohort/internal/opt":       true,
	"cohort/internal/invariant": true, // runs inside the simulator hot path
	"cohort/internal/model":     true, // exhaustive exploration must be reproducible
	// The observability layer feeds deterministic snapshots and traces; its
	// sole sanctioned wall-clock read (obs.WallClock.Now, manifests only)
	// carries a //cohort:allow annotation.
	"cohort/internal/obs": true,
}

// Vet is the cohort-vet driver: it builds prog's call graph once, runs each
// analyzer over prog with the loaded contract packages in scope, and returns
// the findings in analyzer order, with file paths relative to root, plus the
// number of contract packages checked. Loading no contract package at all is
// an error: the per-package analyzers would check nothing.
func Vet(prog *Program, analyzers []*Analyzer, root string) ([]Finding, int, error) {
	g, err := BuildGraph(prog)
	if err != nil {
		return nil, 0, err
	}
	var scope []*Package
	for _, pkg := range prog.Pkgs {
		if contractPackages[pkg.Path] {
			scope = append(scope, pkg)
		}
	}
	if len(scope) == 0 {
		return nil, 0, errors.New("lint: no contract packages loaded")
	}
	var findings []Finding
	for _, a := range analyzers {
		for _, d := range Run(a, prog, g, scope) {
			pos := prog.Fset.Position(d.Pos)
			findings = append(findings, RelFinding(a.Name, pos.Filename, pos.Line, pos.Column, d.Message, root))
		}
	}
	return findings, len(scope), nil
}

// inspectWithStack walks the AST keeping the ancestor stack, calling fn with
// each node and its ancestors (outermost first). Returning false from fn
// prunes the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		stack = append(stack, n)
		if !keep {
			// Still push/pop symmetrically: Inspect will not descend, so pop
			// immediately by returning false after removing the entry.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal in the
// ancestor stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

// calleeFunc resolves the called function object of a call expression, if it
// is a named function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
