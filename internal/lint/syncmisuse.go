package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SyncMisuseAnalyzer catches the sync-primitive misuse patterns that
// type-check fine, usually survive `go test -race`, and corrupt concurrent
// state in production:
//
//   - copying a value whose type (transitively) contains a sync.Mutex,
//     RWMutex, WaitGroup, Once, Cond or a sync/atomic counter — the copy
//     carries the lock state but not the lock, so the original and the copy
//     guard nothing together;
//   - WaitGroup.Add called inside the spawned goroutine — the spawner can
//     reach Wait before the goroutine is scheduled, so Wait returns while
//     work is still in flight (Add must happen-before the go statement);
//   - a second Unlock of the same lock class on one straight-line path
//     (including an explicit Unlock after `defer mu.Unlock()`), which
//     panics at runtime;
//   - a channel that one function sends on while a different function —
//     a different goroutine in the conservative model — closes it, without a
//     //cohort:chanowner annotation on the channel's declaration: send on a
//     closed channel panics, so close ownership must be single and explicit.
//
// The annotation //cohort:chanowner <reason> on (or directly above) the
// channel's declaration documents single-owner closing discipline where the
// analyzer cannot see it; like //cohort:allow it requires a non-empty reason
// and is machine-checked here.
var SyncMisuseAnalyzer = &Analyzer{
	Name: "syncmisuse",
	Doc: "copied locks, WaitGroup.Add inside the spawned goroutine, double unlock " +
		"on a path, and cross-goroutine channel close without //cohort:chanowner",
	Run: runSyncMisuse,
}

func runSyncMisuse(pass *Pass) {
	lockCache := make(map[types.Type]bool)
	chanOwner := collectChanOwners(pass)
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			checkLockCopies(pass, pkg.Info, f, lockCache)
			checkWaitGroupAdd(pass, pkg.Info, f)
		}
	}
	for _, n := range pass.Graph.Nodes {
		checkDoubleUnlock(pass, n)
	}
	checkChanClose(pass, chanOwner)
}

// ---- copied locks ----

// containsLock reports whether t transitively contains a sync or sync/atomic
// primitive that must not be copied after first use.
func containsLock(t types.Type, cache map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	if v, ok := cache[t]; ok {
		return v
	}
	cache[t] = false // break recursive types; refined below
	result := false
	switch u := t.Underlying().(type) {
	case *types.Struct:
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sync":
					switch obj.Name() {
					case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool":
						result = true
					}
				case "sync/atomic":
					result = true // Int32/Int64/Uint…/Bool/Value/Pointer[T] all pin their address
				}
			}
		}
		if !result {
			for i := 0; i < u.NumFields(); i++ {
				if containsLock(u.Field(i).Type(), cache) {
					result = true
					break
				}
			}
		}
	case *types.Array:
		result = containsLock(u.Elem(), cache)
	}
	cache[t] = result
	return result
}

// copySource reports whether the expression copies an *existing* value (as
// opposed to constructing a fresh one): identifiers, field selections, index
// expressions and pointer dereferences. Composite literals and call results
// are fresh values — initializing from them is fine.
func copySource(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name != "_"
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

func checkLockCopies(pass *Pass, info *types.Info, f *ast.File, cache map[types.Type]bool) {
	reportCopy := func(e ast.Expr, how string) {
		t := info.TypeOf(e)
		if t == nil || !containsLock(t, cache) {
			return
		}
		if !copySource(e) {
			return
		}
		pass.Reportf(e.Pos(), "%s copies a value of type %s which contains a sync primitive; "+
			"the copy shares no lock state with the original — use a pointer", how, types.TypeString(t, shortQualifier))
	}
	ast.Inspect(f, func(x ast.Node) bool {
		switch node := x.(type) {
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				// Assigning to blank discards the value: no copy survives.
				if len(node.Lhs) == len(node.Rhs) {
					if id, ok := node.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				reportCopy(rhs, "assignment")
			}
		case *ast.ValueSpec:
			for _, v := range node.Values {
				reportCopy(v, "initialization")
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[ast.Unparen(node.Fun)]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			for _, arg := range node.Args {
				reportCopy(arg, "call argument")
			}
		case *ast.ReturnStmt:
			for _, r := range node.Results {
				reportCopy(r, "return")
			}
		case *ast.RangeStmt:
			if node.Value != nil && node.Tok == token.DEFINE {
				if t := info.TypeOf(node.Value); t != nil && containsLock(t, cache) {
					pass.Reportf(node.Value.Pos(), "range copies values of type %s which contains a sync "+
						"primitive; iterate by index or over pointers", types.TypeString(t, shortQualifier))
				}
			}
		}
		return true
	})
}

func shortQualifier(p *types.Package) string { return p.Name() }

// ---- WaitGroup.Add inside the spawned goroutine ----

func checkWaitGroupAdd(pass *Pass, info *types.Info, f *ast.File) {
	ast.Inspect(f, func(x ast.Node) bool {
		gs, ok := x.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(y ast.Node) bool {
			call, ok := y.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Name() != "Add" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !isSyncType(sig.Recv().Type(), "WaitGroup") {
				return true
			}
			pass.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races with Wait: "+
				"the spawner can pass Wait before this goroutine is scheduled — call Add before the go statement")
			return true
		})
		return true
	})
}

// ---- double unlock on a straight-line path ----

func checkDoubleUnlock(pass *Pass, n *CGNode) {
	events := nodeLockEvents(pass.Graph, n)
	fset := pass.Prog.Fset
	// Track, per lock class: how many holds the linear walk has seen, and
	// whether a deferred Unlock is pending (fires after every statement).
	holds := make(map[types.Object]int)
	deferred := make(map[types.Object]token.Pos)
	for _, ev := range events {
		switch ev.kind {
		case evAcquire:
			holds[ev.lock]++
		case evDeferRelease:
			if pos, dup := deferred[ev.lock]; dup {
				pass.Reportf(ev.pos, "second deferred unlock of %s (first at %s); both run at function "+
					"exit — the second panics", ev.display, fmtPos(fset, pos))
				continue
			}
			deferred[ev.lock] = ev.pos
			holds[ev.lock]--
		case evRelease:
			if holds[ev.lock] <= 0 {
				if pos, ok := deferred[ev.lock]; ok {
					pass.Reportf(ev.pos, "unlock of %s after `defer` already scheduled its unlock at %s; "+
						"the deferred unlock will panic at function exit", ev.display, fmtPos(fset, pos))
				} else {
					pass.Reportf(ev.pos, "unlock of %s which this path has not locked (double unlock?); "+
						"unlocking an unlocked mutex panics", ev.display)
				}
				continue
			}
			holds[ev.lock]--
		}
	}
}

// ---- cross-goroutine channel close ----

// chanSite records where a channel object is sent on or closed, per
// call-graph context.
type chanSite struct {
	node *CGNode
	pos  token.Pos
}

type chanUsage struct {
	display string
	sends   []chanSite
	closes  []chanSite
	decl    types.Object
}

// collectChanOwners gathers send and close sites per channel object across
// the program, attributing each to its enclosing call-graph node (a function
// literal is its own node — and, under a go statement, its own goroutine).
func collectChanOwners(pass *Pass) map[types.Object]*chanUsage {
	usage := make(map[types.Object]*chanUsage)
	record := func(pkg *Package, stack []ast.Node, obj types.Object, display string, pos token.Pos, isClose bool) {
		u := usage[obj]
		if u == nil {
			u = &chanUsage{display: display, decl: obj}
			usage[obj] = u
		}
		var node *CGNode
		switch enc := enclosingFunc(stack).(type) {
		case *ast.FuncDecl:
			if fobj, ok := pkg.Info.Defs[enc.Name].(*types.Func); ok {
				node = pass.Graph.NodeByObj(fobj)
			}
		case *ast.FuncLit:
			node = pass.Graph.NodeByLit(enc)
		}
		site := chanSite{node: node, pos: pos}
		if isClose {
			u.closes = append(u.closes, site)
		} else {
			u.sends = append(u.sends, site)
		}
	}
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			pkgv := pkg
			inspectWithStack(f, func(x ast.Node, stack []ast.Node) bool {
				switch node := x.(type) {
				case *ast.SendStmt:
					if obj := rootObject(pkgv.Info, node.Chan); obj != nil {
						record(pkgv, stack, obj, renderAccessName(pkgv.Info, node.Chan, obj), node.Pos(), false)
					}
				case *ast.CallExpr:
					id, ok := ast.Unparen(node.Fun).(*ast.Ident)
					if !ok || len(node.Args) != 1 {
						return true
					}
					if b, ok := pkgv.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
						return true
					}
					if obj := rootObject(pkgv.Info, node.Args[0]); obj != nil {
						record(pkgv, stack, obj, renderAccessName(pkgv.Info, node.Args[0], obj), node.Pos(), true)
					}
				}
				return true
			})
		}
	}
	return usage
}

// checkChanClose reports channels closed in a different call-graph node than
// one that sends on them, unless the declaration carries //cohort:chanowner.
func checkChanClose(pass *Pass, usage map[types.Object]*chanUsage) {
	owners := chanOwnerLines(pass)
	objs := make(map[types.Object]string, len(usage))
	//cohort:allow maprange: collect-then-sort via sortedLockObjects
	for o, u := range usage {
		objs[o] = u.display
	}
	for _, obj := range sortedLockObjects(objs) {
		u := usage[obj]
		if len(u.closes) == 0 || len(u.sends) == 0 {
			continue
		}
		decl := pass.Prog.Fset.Position(obj.Pos())
		if owners[lineKey{decl.Filename, decl.Line}] {
			continue
		}
		for _, cl := range u.closes {
			for _, snd := range u.sends {
				if cl.node == snd.node {
					continue
				}
				sender := "another function"
				if snd.node != nil {
					sender = snd.node.Name
				}
				pass.Reportf(cl.pos, "channel %s is closed here but sent to in %s (%s); send on a closed "+
					"channel panics — a single owner must close, or annotate the declaration "+
					"//cohort:chanowner <reason>", u.display, sender, fmtPos(pass.Prog.Fset, snd.pos))
				break // one report per close site
			}
		}
	}
}

// chanOwnerLines returns the lines the //cohort:chanowner annotations cover:
// the annotation's own line and the next (annotation above the
// declaration). A chanowner annotation with no reason is itself reported —
// the waiver must be reviewable, exactly like //cohort:allow.
func chanOwnerLines(pass *Pass) map[lineKey]bool {
	lines := make(map[lineKey]bool)
	for _, d := range pass.Prog.dirs.list {
		if d.kind != "chanowner" {
			continue
		}
		if d.arg == "" {
			pass.Reportf(d.pos, "cohort:chanowner annotation has no reason; "+
				"state who owns the close and why")
			continue
		}
		for _, k := range coveredLines(pass.Prog.Fset, d.pos) {
			lines[k] = true
		}
	}
	return lines
}
