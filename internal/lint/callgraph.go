package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// HotKind classifies a function's //cohort:hotpath annotation.
type HotKind uint8

const (
	// HotNone: no annotation; the function is hot only if reached from a root.
	HotNone HotKind = iota
	// HotFull marks a hot-path root: the full contract (zero allocation and
	// determinism) binds the function and everything it reaches.
	HotFull
	// HotDeterminism marks a determinism-only root (the oracle entry points):
	// reachcontract traverses it, hotalloc does not — the oracle may allocate
	// but must stay reproducible.
	HotDeterminism
	// HotExempt cuts the traversal: the function and its callees are excluded
	// from whole-program hot-path analysis (opt-in debug machinery such as
	// invariant checking that runs inside the loop but is off in production).
	// Per-package analyzers still cover exempt code.
	HotExempt
)

func (k HotKind) String() string {
	switch k {
	case HotFull:
		return "hotpath"
	case HotDeterminism:
		return "hotpath determinism"
	case HotExempt:
		return "hotpath exempt"
	}
	return "-"
}

// CGNode is one function in the conservative call graph: a declared function
// or method (Obj non-nil) or a function literal (Lit non-nil).
type CGNode struct {
	Obj  *types.Func
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Pkg  *Package
	Name string
	Hot  HotKind
	// Server marks a //cohort:server root: a request-scoped entry point of
	// the debug server's serve surface. The ctxflow analyzer requires every
	// blocking operation reachable from a server root to sit in a function
	// that accepts a context.Context.
	Server bool
	Pos    token.Pos

	// Calls lists callee nodes in first-encounter order, deduplicated.
	Calls []*CGNode

	calleeSet map[*CGNode]bool
}

func (n *CGNode) addCall(callee *CGNode) {
	if callee == nil || n.calleeSet[callee] {
		return
	}
	if n.calleeSet == nil {
		n.calleeSet = make(map[*CGNode]bool)
	}
	n.calleeSet[callee] = true
	n.Calls = append(n.Calls, callee)
}

// Graph is the conservative whole-program call graph over a Program. Edges
// over-approximate execution:
//
//   - static calls and concrete method calls resolve to their declaration;
//   - interface method calls fan out to every module type implementing the
//     interface (class-hierarchy analysis);
//   - a function literal is linked from the function that creates it — the
//     literal runs, or escapes, only if its creator runs;
//   - calls through function *values* (fields, parameters, stored closures)
//     produce no edge. This is the documented unsoundness: a function stored
//     cold and invoked hot is not traversed. The creation-site rule covers
//     the common shapes (a closure built in hot code is itself a hotalloc
//     finding), and the runtime allocation ceiling backstops the rest.
type Graph struct {
	Prog  *Program
	Nodes []*CGNode

	byObj map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode

	namedTypes []types.Type // concrete named types across the program, for CHA
}

// NodeByObj returns the node for a declared function, or nil.
func (g *Graph) NodeByObj(f *types.Func) *CGNode { return g.byObj[f] }

// NodeByLit returns the node for a function literal, or nil.
func (g *Graph) NodeByLit(lit *ast.FuncLit) *CGNode { return g.byLit[lit] }

// BuildGraph constructs the conservative call graph for a loaded Program.
// It fails on a malformed //cohort:hotpath or //cohort:server annotation
// (unknown or extra qualifier): a typo there would silently change the
// checked surface.
func BuildGraph(prog *Program) (*Graph, error) {
	g := &Graph{
		Prog:  prog,
		byObj: make(map[*types.Func]*CGNode),
		byLit: make(map[*ast.FuncLit]*CGNode),
	}
	g.collectNamedTypes()

	// Pass 1: a node per declared function with a body.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				hot, err := hotAnnotation(prog.Fset, prog.dirs.inDoc(fd.Doc, "hotpath"))
				if err != nil {
					return nil, err
				}
				server, err := serverAnnotation(prog.Fset, prog.dirs.inDoc(fd.Doc, "server"))
				if err != nil {
					return nil, err
				}
				n := &CGNode{
					Obj:    obj,
					Body:   fd.Body,
					Pkg:    pkg,
					Name:   funcDisplayName(obj),
					Hot:    hot,
					Server: server,
					Pos:    fd.Name.Pos(),
				}
				g.byObj[obj] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}

	// Pass 2: a node per function literal, linked from its creator. The walk
	// tracks the innermost enclosing node so nested literals chain correctly.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			g.collectLiterals(pkg, f)
		}
	}

	// Pass 3: call edges from each node's own statements (nested literal
	// bodies belong to the literal's node).
	for _, n := range g.Nodes {
		g.addCallEdges(n)
	}
	return g, nil
}

// collectNamedTypes gathers every concrete named type declared in the
// program's packages, in deterministic (package path, name) order — the CHA
// candidate set for interface dispatch.
func (g *Graph) collectNamedTypes() {
	for _, pkg := range g.Prog.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue // generic types are skipped (cannot be soundly instantiated here)
			}
			if types.IsInterface(named) {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
}

// collectLiterals creates literal nodes for one file, each linked from its
// innermost enclosing function's node. Ancestors are visited before their
// literals, so the enclosing node always exists by the time a literal needs
// it. Literals outside any function (package-level var initializers) get a
// node but no creator edge — they are unreachable by construction, one of the
// documented approximations.
func (g *Graph) collectLiterals(pkg *Package, file *ast.File) {
	litCount := make(map[*CGNode]int)
	inspectWithStack(file, func(n ast.Node, stack []ast.Node) bool {
		x, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		var parent *CGNode
		switch enc := enclosingFunc(stack).(type) {
		case *ast.FuncDecl:
			if obj, ok := pkg.Info.Defs[enc.Name].(*types.Func); ok {
				parent = g.byObj[obj]
			}
		case *ast.FuncLit:
			parent = g.byLit[enc]
		}
		name := fmt.Sprintf("%s.lit@%d", pkg.Types.Name(), g.Prog.Fset.Position(x.Pos()).Line)
		if parent != nil {
			litCount[parent]++
			name = fmt.Sprintf("%s$%d", parent.Name, litCount[parent])
		}
		node := &CGNode{
			Lit:  x,
			Body: x.Body,
			Pkg:  pkg,
			Name: name,
			Pos:  x.Pos(),
		}
		g.byLit[x] = node
		g.Nodes = append(g.Nodes, node)
		if parent != nil {
			parent.addCall(node)
		}
		return true
	})
}

// addCallEdges resolves every call expression in n's own statements.
func (g *Graph) addCallEdges(n *CGNode) {
	own := func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		return !ok || lit == n.Lit
	}
	info := n.Pkg.Info
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			if x == nil {
				return true
			}
			if !own(x) {
				return false // nested literal: its node owns these calls
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.resolveCall(n, info, call)
			return true
		})
	}
	if n.Lit != nil {
		walk(n.Lit.Body)
	} else {
		walk(n.Body)
	}
}

// resolveCall adds edges for one call expression: an interface method call
// fans out to every CHA candidate, any other call to its static callee.
func (g *Graph) resolveCall(n *CGNode, info *types.Info, call *ast.CallExpr) {
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				g.addInterfaceEdges(n, iface, sel.Obj().Name())
				return
			}
		}
	}
	n.addCall(g.staticCallee(info, call))
}

// staticCallee resolves a call expression to the declared function it
// statically targets, or nil: calls through function values, and interface
// method calls, have no single static target.
func (g *Graph) staticCallee(info *types.Info, call *ast.CallExpr) *CGNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return g.byObj[origin(f)]
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if f, ok := sel.Obj().(*types.Func); ok {
				return g.byObj[origin(f)]
			}
			return nil
		}
		// Package-qualified call (pkg.Fn) or method expression used directly.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return g.byObj[origin(f)]
		}
	}
	return nil
}

// addInterfaceEdges fans an interface method call out to every concrete
// module type implementing the interface (CHA).
func (g *Graph) addInterfaceEdges(n *CGNode, iface *types.Interface, method string) {
	for _, t := range g.namedTypes {
		named := t.(*types.Named)
		if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, named.Obj().Pkg(), method)
		if f, ok := obj.(*types.Func); ok {
			n.addCall(g.byObj[origin(f)])
		}
	}
}

// origin maps an instantiated generic function or method back to its
// declaration object, which is what Defs recorded at the declaration site.
func origin(f *types.Func) *types.Func { return f.Origin() }

// hotAnnotation reads a function's //cohort:hotpath directive (nil when its
// doc carries none).
func hotAnnotation(fset *token.FileSet, d *directive) (HotKind, error) {
	if d == nil {
		return HotNone, nil
	}
	switch d.arg {
	case "":
		return HotFull, nil
	case "determinism":
		return HotDeterminism, nil
	case "exempt":
		return HotExempt, nil
	}
	return HotNone, fmt.Errorf("lint: %s: unknown //cohort:hotpath qualifier %q (want none, determinism, or exempt)",
		fset.Position(d.pos), d.arg)
}

// serverAnnotation reads a function's //cohort:server directive (nil when
// its doc carries none). The annotation takes no qualifier; trailing text is
// an error for the same reason an unknown hotpath qualifier is — a typo must
// not silently shrink (or grow) the checked surface.
func serverAnnotation(fset *token.FileSet, d *directive) (bool, error) {
	if d == nil {
		return false, nil
	}
	if d.arg != "" {
		return false, fmt.Errorf("lint: %s: //cohort:server takes no qualifier, got %q",
			fset.Position(d.pos), d.arg)
	}
	return true, nil
}

// ServerRoots returns the nodes annotated //cohort:server, in graph order.
func (g *Graph) ServerRoots() []*CGNode {
	var roots []*CGNode
	for _, n := range g.Nodes {
		if n.Server {
			roots = append(roots, n)
		}
	}
	return roots
}

// ReachableFrom computes the set of nodes reachable from the given roots via
// plain BFS — unlike Reachable it does not honour HotExempt cuts, because it
// serves contracts (ctxflow) orthogonal to the hot-path budget. The parent
// map reconstructs one shortest call path per node; roots map to nil.
func (g *Graph) ReachableFrom(roots []*CGNode) (map[*CGNode]bool, map[*CGNode]*CGNode) {
	return reach(roots, false)
}

// Reachable computes the set of nodes reachable from roots annotated with one
// of the given kinds, excluding HotExempt nodes (the traversal does not enter
// them). The returned parent map reconstructs one shortest call path per node
// for diagnostics; roots map to nil.
func (g *Graph) Reachable(kinds ...HotKind) (map[*CGNode]bool, map[*CGNode]*CGNode) {
	want := make(map[HotKind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var roots []*CGNode
	for _, n := range g.Nodes {
		if want[n.Hot] {
			roots = append(roots, n)
		}
	}
	return reach(roots, true)
}

// reach is the BFS behind Reachable and ReachableFrom; cutExempt stops it at
// HotExempt callees.
func reach(roots []*CGNode, cutExempt bool) (map[*CGNode]bool, map[*CGNode]*CGNode) {
	seen := make(map[*CGNode]bool)
	parent := make(map[*CGNode]*CGNode)
	var queue []*CGNode
	for _, n := range roots {
		if !seen[n] {
			seen[n] = true
			parent[n] = nil
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			if seen[c] || (cutExempt && c.Hot == HotExempt) {
				continue
			}
			seen[c] = true
			parent[c] = n
			queue = append(queue, c)
		}
	}
	return seen, parent
}

// CallPath renders the call chain from a root to n, e.g.
// "core.(*System).HandleEvent → core.(*System).coreWake". Long chains keep
// the root and the last hops.
func CallPath(parent map[*CGNode]*CGNode, n *CGNode) string {
	var names []string
	for cur := n; cur != nil; cur = parent[cur] {
		names = append(names, cur.Name)
		if parent[cur] == nil {
			break
		}
	}
	// names is leaf..root; reverse.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	const max = 6
	if len(names) > max {
		head := names[:2]
		tail := names[len(names)-3:]
		names = append(append(append([]string{}, head...), "…"), tail...)
	}
	return strings.Join(names, " → ")
}

// Dump writes a deterministic text rendering of the graph: every node with
// its annotation and outgoing edges, sorted by name, then the hot-path
// reachability roster. Used by cohort-vet -graph for debugging.
func (g *Graph) Dump(w io.Writer) {
	nodes := append([]*CGNode(nil), g.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Name != nodes[j].Name {
			return nodes[i].Name < nodes[j].Name
		}
		return g.Prog.Fset.Position(nodes[i].Pos).Offset < g.Prog.Fset.Position(nodes[j].Pos).Offset
	})
	hot, _ := g.Reachable(HotFull)
	det, _ := g.Reachable(HotFull, HotDeterminism)
	for _, n := range nodes {
		marks := ""
		if n.Hot != HotNone {
			marks = " [" + n.Hot.String() + "]"
		}
		switch {
		case hot[n]:
			marks += " (hot)"
		case det[n]:
			marks += " (determinism)"
		}
		fmt.Fprintf(w, "%s%s\n", n.Name, marks)
		var callees []string
		for _, c := range n.Calls {
			callees = append(callees, c.Name)
		}
		sort.Strings(callees)
		for _, c := range callees {
			fmt.Fprintf(w, "\t→ %s\n", c)
		}
	}
}

// funcDisplayName renders a compact package-qualified name:
// "core.(*System).HandleEvent" or "sim.New".
func funcDisplayName(f *types.Func) string {
	pkg := "?"
	if f.Pkg() != nil {
		pkg = f.Pkg().Name()
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return pkg + ".(" + ptr + named.Obj().Name() + ")." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}
