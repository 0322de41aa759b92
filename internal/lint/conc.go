package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Shared machinery of the concurrency-contract analyzers (lockorder,
// atomicmix, goleak, ctxflow, syncmisuse): lock-class identity, blocking-op
// classification, and the per-node event streams the interprocedural
// analyses consume.
//
// Lock identity is class-based, like the kernel's lockdep: every instance of
// core.System.mu is one lock class, identified by the *types.Var of the
// field (or of the package-level/local variable for non-field mutexes).
// Program-wide *types.Var pointer identity is exactly what LoadProgram
// provides, so a class seen from internal/experiments is the same class seen
// from internal/obs. Conflating instances over-approximates (two distinct
// Registry values can be locked in either order without deadlock), which is
// the safe direction for an order analysis.

// isSyncType reports whether t (after deref) is the named sync type, e.g.
// isSyncType(t, "Mutex") for sync.Mutex.
func isSyncType(t types.Type, name string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// isMutexType matches sync.Mutex and sync.RWMutex (and pointers to them).
func isMutexType(t types.Type) bool {
	return isSyncType(t, "Mutex") || isSyncType(t, "RWMutex")
}

// lockAcquireMethods / lockReleaseMethods are the blocking mutex methods.
// TryLock/TryRLock are deliberately absent: a try that fails does not block,
// so it cannot complete a deadlock cycle.
var lockAcquireMethods = map[string]bool{"Lock": true, "RLock": true}
var lockReleaseMethods = map[string]bool{"Unlock": true, "RUnlock": true}

// lockClass resolves the receiver expression of a mutex method call to its
// lock-class object plus a human-readable class name. recv is the X of the
// method selector (the `s.mu` in `s.mu.Lock()`). Returns nil when the
// receiver is not a plain variable/field chain (e.g. a map lookup or a call
// result — out of scope for class identity).
func lockClass(info *types.Info, recv ast.Expr) (types.Object, string) {
	switch x := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if _, ok := obj.(*types.Var); !ok {
			return nil, ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj, obj.Pkg().Name() + "." + obj.Name()
		}
		return obj, obj.Name()
	case *ast.SelectorExpr:
		obj := info.Uses[x.Sel]
		if sel, ok := info.Selections[x]; ok {
			obj = sel.Obj()
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return nil, ""
		}
		if !v.IsField() {
			// Package-qualified variable (dep.Mu): same class rule as a
			// plain package-level identifier.
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v, v.Pkg().Name() + "." + v.Name()
			}
			return nil, ""
		}
		// Qualify the field by the type of the expression it is selected
		// from: "Registry.valMu", not a bare "valMu".
		base := info.TypeOf(x.X)
		for base != nil {
			if p, ok := base.(*types.Pointer); ok {
				base = p.Elem()
				continue
			}
			break
		}
		name := v.Name()
		if named, ok := base.(*types.Named); ok {
			pkg := ""
			if named.Obj().Pkg() != nil {
				pkg = named.Obj().Pkg().Name() + "."
			}
			name = pkg + named.Obj().Name() + "." + v.Name()
		}
		return v, name
	case *ast.StarExpr:
		return lockClass(info, x.X)
	}
	return nil, ""
}

// lockEventKind classifies one entry of a node's concurrency event stream.
type lockEventKind uint8

const (
	evAcquire      lockEventKind = iota // mu.Lock() / mu.RLock()
	evRelease                           // mu.Unlock() / mu.RUnlock(), immediate
	evDeferRelease                      // defer mu.Unlock(): held to function end
	evCall                              // static call or literal creation, in source order
)

// lockEvent is one source-ordered event inside a node's own statements.
type lockEvent struct {
	kind    lockEventKind
	lock    types.Object // evAcquire/evRelease/evDeferRelease
	display string       // lock class name for diagnostics
	callee  *CGNode      // evCall
	pos     token.Pos
}

// nodeLockEvents walks one call-graph node's own statements in source order
// and returns its lock/call event stream. Nested function literals belong to
// their own nodes (their creation appears as an evCall, matching the graph's
// creator edges). Calls and literals spawned via `go` are skipped entirely:
// a goroutine does not inherit the spawner's held locks, so its acquisitions
// impose no order against them — the spawned node's own events are analyzed
// when the walker reaches that node.
func nodeLockEvents(g *Graph, n *CGNode) []lockEvent {
	info := n.Pkg.Info
	root := ast.Node(n.Body)
	if n.Lit != nil {
		root = n.Lit.Body
	}
	if root == nil {
		return nil
	}
	var events []lockEvent
	spawned := make(map[ast.Node]bool) // direct call/literal of a go statement
	inDefer := make(map[ast.Node]bool) // the call of a defer statement
	ast.Inspect(root, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			if callee := g.NodeByLit(lit); callee != nil && !spawned[lit] {
				events = append(events, lockEvent{kind: evCall, callee: callee, pos: lit.Pos()})
			}
			return false // the literal's body belongs to its node
		}
		switch st := x.(type) {
		case *ast.GoStmt:
			spawned[st.Call] = true
			if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
				spawned[lit] = true
			}
		case *ast.DeferStmt:
			inDefer[st.Call] = true
		case *ast.CallExpr:
			if spawned[st] {
				return true // arguments are still evaluated inline; descend
			}
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
					if recvIsMutex(fn) {
						obj, display := lockClass(info, sel.X)
						if obj != nil {
							switch {
							case lockAcquireMethods[fn.Name()]:
								events = append(events, lockEvent{kind: evAcquire, lock: obj, display: display, pos: st.Pos()})
							case lockReleaseMethods[fn.Name()]:
								kind := evRelease
								if inDefer[st] {
									kind = evDeferRelease
								}
								events = append(events, lockEvent{kind: kind, lock: obj, display: display, pos: st.Pos()})
							}
							return true
						}
					}
				}
			}
			if callee := g.staticCallee(info, st); callee != nil {
				events = append(events, lockEvent{kind: evCall, callee: callee, pos: st.Pos()})
			}
		}
		return true
	})
	return events
}

// recvIsMutex reports whether fn is a method of sync.Mutex or sync.RWMutex.
func recvIsMutex(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isMutexType(sig.Recv().Type())
}

// rootObject walks a selector/index/star chain to its base identifier's
// object: the `ch` of `s.ch`, `chans[i]`, `*p.ch`. Returns nil when the base
// is not a plain variable (a call result, a literal).
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			// Prefer the selected field's identity: distinct fields are
			// distinct channels/counters even on one struct value.
			if sel, ok := info.Selections[x]; ok {
				if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
					return v
				}
			} else if v, ok := info.Uses[x.Sel].(*types.Var); ok {
				return v // qualified identifier: pkg.Var
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isContextType matches context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasContextParam reports whether the node's own signature accepts a
// context.Context (the receiver does not count: cancellation must flow per
// call, not per object).
func hasContextParam(info *types.Info, n *CGNode) bool {
	sig := nodeSignature(info, n)
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// hasCloseMethod reports whether t (after deref) declares a Close, Shutdown
// or Stop method — the lifecycle-owner shape that makes a background
// goroutine joinable (obs.DebugServer, net/http.Server).
func hasCloseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, m := range []string{"Close", "Shutdown", "Stop"} {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), m)
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}

// sortedLockObjects renders map keys in deterministic display order so
// diagnostics and cycle enumeration never depend on map iteration.
func sortedLockObjects(m map[types.Object]string) []types.Object {
	objs := make([]types.Object, 0, len(m))
	//cohort:allow maprange: collect-then-sort; the sort below restores a canonical order
	for o := range m {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool {
		if m[objs[i]] != m[objs[j]] {
			return m[objs[i]] < m[objs[j]]
		}
		return objs[i].Pos() < objs[j].Pos()
	})
	return objs
}

// fmtPos renders a position for embedding in a diagnostic message, file
// base-named so baselines stay stable across checkouts.
func fmtPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	file := p.Filename
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}
