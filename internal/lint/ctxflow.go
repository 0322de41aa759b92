package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer enforces cancellation plumbing on the serve surface: every
// function that can block — channel operations, select without a default,
// WaitGroup/Cond.Wait, time.Sleep, net/http client calls — reachable over
// the call graph from a //cohort:server root must accept a context.Context,
// so a request that is cancelled or deadline-expired can stop waiting
// instead of pinning a worker forever. Roots are the request-scoped entry
// points of the serve surface: the debug server's handlers.
//
// The rule binds the blocking function itself: accepting a ctx one frame up
// does not help the frame that actually parks. Mutex Lock is deliberately
// not a blocking op here — registry-style locks are held for microseconds
// and ctx-aware locking is not expressible with sync.Mutex; unbounded waits
// are what the analyzer is after. Propagation depth inherits the CHA graph's
// caveats: blocking behind a function value is invisible (DESIGN.md §16).
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc: "functions that block (channel ops, select, Wait, Sleep, http calls) " +
		"reachable from a //cohort:server root must accept a context.Context",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	g := pass.Graph
	roots := g.ServerRoots()
	if len(roots) == 0 {
		return
	}
	reach, parent := g.ReachableFrom(roots)
	for _, n := range g.Nodes {
		if !reach[n] {
			continue
		}
		if hasContextParam(n.Pkg.Info, n) {
			continue
		}
		path := CallPath(parent, n)
		checkBlockingOps(pass, n, path)
	}
}

// checkBlockingOps scans one server-reachable node's own statements for
// blocking operations.
func checkBlockingOps(pass *Pass, n *CGNode, path string) {
	info := n.Pkg.Info
	root := ast.Node(n.Body)
	if n.Lit != nil {
		root = n.Lit.Body
	}
	if root == nil {
		return
	}
	// The comm operations of a select clause are part of the select, not
	// independent blocking ops: the select is the (single) diagnostic.
	inComm := make(map[ast.Node]bool)
	ast.Inspect(root, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false // nested literal: reachable on its own edge
		}
		if inComm[x] {
			return true
		}
		if cc, ok := x.(*ast.CommClause); ok && cc.Comm != nil {
			ast.Inspect(cc.Comm, func(y ast.Node) bool {
				if y != nil {
					inComm[y] = true
				}
				return true
			})
		}
		switch node := x.(type) {
		case *ast.SendStmt:
			pass.Reportf(node.Pos(), "channel send in %s reachable from //cohort:server root (%s) "+
				"without a context.Context parameter; a cancelled request cannot stop this wait", n.Name, path)
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" {
				pass.Reportf(node.Pos(), "channel receive in %s reachable from //cohort:server root (%s) "+
					"without a context.Context parameter; a cancelled request cannot stop this wait", n.Name, path)
			}
		case *ast.SelectStmt:
			if selectHasDefault(node) {
				return true // non-blocking poll
			}
			pass.Reportf(node.Pos(), "blocking select in %s reachable from //cohort:server root (%s) "+
				"without a context.Context parameter; add a ctx.Done() case and accept the context", n.Name, path)
		case *ast.RangeStmt:
			if t := info.TypeOf(node.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pass.Reportf(node.Pos(), "range over channel in %s reachable from //cohort:server root (%s) "+
						"without a context.Context parameter; a cancelled request cannot stop this wait", n.Name, path)
				}
			}
		case *ast.CallExpr:
			if what := blockingCall(info, node); what != "" {
				pass.Reportf(node.Pos(), "blocking call %s in %s reachable from //cohort:server root (%s) "+
					"without a context.Context parameter; thread the request context through", what, n.Name, path)
			}
		}
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies calls that park the goroutine for unbounded time:
// WaitGroup.Wait, Cond.Wait, time.Sleep, and the net/http client entry
// points (package-level Get/Post/Head/PostForm and (*http.Client) methods).
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	switch {
	case fn.Name() == "Wait" && sig != nil && sig.Recv() != nil &&
		(isSyncType(sig.Recv().Type(), "WaitGroup") || isSyncType(sig.Recv().Type(), "Cond")):
		recv := "WaitGroup"
		if isSyncType(sig.Recv().Type(), "Cond") {
			recv = "Cond"
		}
		return "sync." + recv + ".Wait"
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case fn.Pkg().Path() == "net/http":
		if sig != nil && sig.Recv() == nil {
			switch fn.Name() {
			case "Get", "Post", "Head", "PostForm":
				return "http." + fn.Name()
			}
			return ""
		}
		if sig != nil && sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil && named.Obj().Name() == "Client" {
				return "http.Client." + fn.Name()
			}
		}
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
