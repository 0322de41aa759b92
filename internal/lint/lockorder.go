package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// LockOrderAnalyzer derives a global mutex-acquisition order graph from
// static Lock/RLock nesting across the whole-program call graph and reports
// every cycle: if one code path acquires A then B while another acquires B
// then A, two goroutines interleaving those paths deadlock — a hang `go test
// -race` only catches when the losing interleaving actually executes.
//
// Locks are identified by class (the field or variable object), like the
// kernel's lockdep: every instance of Registry.valMu is one class. An edge
// A→B is recorded when B is acquired — directly or through any statically
// resolvable call chain — while A is held. Holds are tracked by a linear
// source-order walk per function: Lock adds a hold, a matching non-deferred
// Unlock removes it, `defer mu.Unlock()` keeps the hold to the function end.
// Calls and literals spawned via `go` contribute no edges from the spawner's
// holds (the goroutine does not inherit them).
//
// A recursive acquisition — Lock on a class already held, directly or via a
// callee — is reported immediately: Go mutexes are not reentrant, so that
// path self-deadlocks without needing a second goroutine.
//
// Approximations inherited from the CHA graph (DESIGN.md §16): calls through
// function values produce no edges, so a callback invoked under a lock is
// not traversed (Registry.Sync's valMu→fn()→mu nesting is the documented
// instance — guarded by contract comments and the race gate instead), and
// branch structure is flattened into source order, which over-approximates
// held sets across early returns.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "derive the global mutex-acquisition order graph over the whole-program " +
		"call graph and report cycles (potential deadlocks) with both acquisition paths",
	Run: runLockOrder,
}

// lockAcq records how one node (transitively) acquires one lock class.
type lockAcq struct {
	pos token.Pos // acquisition site in the node, or the call site leading deeper
	via *CGNode   // nil: direct Lock; else the callee whose summary holds the lock
}

// lockEdge is one order constraint: `to` was acquired while `from` was held.
type lockEdge struct {
	from, to types.Object
	holdPos  token.Pos // where `from` was locked
	acqPos   token.Pos // Lock site of `to`, or the call site leading to it
	path     string    // rendered call chain from the holding function to the Lock
}

func runLockOrder(pass *Pass) {
	g := pass.Graph
	fset := pass.Prog.Fset

	events := make(map[*CGNode][]lockEvent)
	for _, n := range g.Nodes {
		events[n] = nodeLockEvents(g, n)
	}

	displays := make(map[types.Object]string)
	summaries := lockSummaries(g, events, displays)

	// Edge generation: replay each node's event stream with a held set.
	edges := make(map[[2]types.Object]*lockEdge)
	order := make(map[types.Object][]types.Object) // adjacency, insertion-ordered
	addEdge := func(e *lockEdge) {
		k := [2]types.Object{e.from, e.to}
		if edges[k] != nil {
			return
		}
		edges[k] = e
		order[e.from] = append(order[e.from], e.to)
	}

	for _, n := range g.Nodes {
		held := make(map[types.Object]token.Pos)
		for _, ev := range events[n] {
			switch ev.kind {
			case evAcquire:
				if prev, ok := held[ev.lock]; ok {
					pass.Reportf(ev.pos, "recursive acquisition of %s (already locked at %s in %s); "+
						"Go mutexes are not reentrant — this path self-deadlocks",
						displays[ev.lock], fmtPos(fset, prev), n.Name)
				}
				for h, hpos := range held {
					if h == ev.lock {
						continue
					}
					addEdge(&lockEdge{from: h, to: ev.lock, holdPos: hpos, acqPos: ev.pos,
						path: n.Name + " (Lock at " + fmtPos(fset, ev.pos) + ")"})
				}
				held[ev.lock] = ev.pos
			case evRelease:
				delete(held, ev.lock)
			case evDeferRelease:
				// Held to function end: keep the hold.
			case evCall:
				sum := summaries[ev.callee]
				if sum == nil || len(held) == 0 {
					continue
				}
				for _, l := range summaryLocks(sum, displays) {
					if prev, ok := held[l]; ok {
						pass.Reportf(ev.pos, "call into %s acquires %s already locked at %s in %s; "+
							"Go mutexes are not reentrant — this path self-deadlocks (%s)",
							ev.callee.Name, displays[l], fmtPos(fset, prev), n.Name,
							renderAcqPath(fset, summaries, ev.callee, l))
						continue
					}
					for h, hpos := range held {
						addEdge(&lockEdge{from: h, to: l, holdPos: hpos, acqPos: ev.pos,
							path: n.Name + " → " + renderAcqPath(fset, summaries, ev.callee, l)})
					}
				}
			}
		}
	}

	reportLockCycles(pass, fset, edges, order, displays)
}

// lockSummaries computes, per node, the set of lock classes the node
// acquires transitively (directly or through any callee), by fixed-point
// propagation over the call graph. displays accumulates every class's
// render name.
func lockSummaries(g *Graph, events map[*CGNode][]lockEvent, displays map[types.Object]string) map[*CGNode]map[types.Object]lockAcq {
	summaries := make(map[*CGNode]map[types.Object]lockAcq, len(g.Nodes))
	for _, n := range g.Nodes {
		sum := make(map[types.Object]lockAcq)
		for _, ev := range events[n] {
			if ev.kind == evAcquire {
				if _, ok := sum[ev.lock]; !ok {
					sum[ev.lock] = lockAcq{pos: ev.pos}
				}
				displays[ev.lock] = ev.display
			}
		}
		summaries[n] = sum
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			sum := summaries[n]
			for _, ev := range events[n] {
				if ev.kind != evCall {
					continue
				}
				for l := range summaries[ev.callee] {
					if _, ok := sum[l]; !ok {
						sum[l] = lockAcq{pos: ev.pos, via: ev.callee}
						changed = true
					}
				}
			}
		}
	}
	return summaries
}

// summaryLocks returns a summary's lock classes in deterministic order.
func summaryLocks(sum map[types.Object]lockAcq, displays map[types.Object]string) []types.Object {
	names := make(map[types.Object]string, len(sum))
	//cohort:allow maprange: collect-then-sort via sortedLockObjects
	for l := range sum {
		names[l] = displays[l]
	}
	return sortedLockObjects(names)
}

// renderAcqPath follows a summary's via-chain from node to the function that
// directly locks l, e.g. "obs.(*Registry).lookup (Lock at registry.go:111)".
func renderAcqPath(fset *token.FileSet, summaries map[*CGNode]map[types.Object]lockAcq, n *CGNode, l types.Object) string {
	var parts []string
	for {
		parts = append(parts, n.Name)
		acq, ok := summaries[n][l]
		if !ok {
			break
		}
		if acq.via == nil {
			return strings.Join(parts, " → ") + " (Lock at " + fmtPos(fset, acq.pos) + ")"
		}
		n = acq.via
		if len(parts) > 12 { // cycle in the call graph; cut the render
			break
		}
	}
	return strings.Join(parts, " → ")
}

// reportLockCycles finds cycles in the lock-order graph and reports each
// once, anchored at the first edge's acquisition site, with every edge's
// acquisition path in the message.
func reportLockCycles(pass *Pass, fset *token.FileSet, edges map[[2]types.Object]*lockEdge, order map[types.Object][]types.Object, displays map[types.Object]string) {
	starts := make(map[types.Object]string, len(order))
	//cohort:allow maprange: collect-then-sort via sortedLockObjects
	for o := range order {
		starts[o] = displays[o]
	}
	reported := make(map[string]bool)
	for _, start := range sortedLockObjects(starts) {
		// DFS from each class; a back-edge to `start` closes a cycle. Only
		// cycles whose smallest display name is `start` report, so each
		// rotation surfaces exactly once.
		var stack []types.Object
		onStack := make(map[types.Object]bool)
		var dfs func(cur types.Object)
		dfs = func(cur types.Object) {
			stack = append(stack, cur)
			onStack[cur] = true
			for _, next := range order[cur] {
				if next == start {
					cycle := append(append([]types.Object{}, stack...), start)
					if minDisplay(cycle, displays) == displays[start] {
						reportOneCycle(pass, fset, cycle, edges, displays, reported)
					}
					continue
				}
				if !onStack[next] {
					dfs(next)
				}
			}
			stack = stack[:len(stack)-1]
			delete(onStack, cur)
		}
		dfs(start)
	}
}

func minDisplay(cycle []types.Object, displays map[types.Object]string) string {
	min := displays[cycle[0]]
	for _, o := range cycle[1:] {
		if displays[o] < min {
			min = displays[o]
		}
	}
	return min
}

func reportOneCycle(pass *Pass, fset *token.FileSet, cycle []types.Object, edges map[[2]types.Object]*lockEdge, displays map[types.Object]string, reported map[string]bool) {
	names := make([]string, len(cycle))
	for i, o := range cycle {
		names[i] = displays[o]
	}
	key := strings.Join(names, " → ")
	if reported[key] {
		return
	}
	reported[key] = true
	var detail []string
	var anchor token.Pos
	for i := 0; i+1 < len(cycle); i++ {
		e := edges[[2]types.Object{cycle[i], cycle[i+1]}]
		if e == nil {
			return // stale adjacency; cannot happen with consistent maps
		}
		if i == 0 {
			anchor = e.acqPos
		}
		detail = append(detail, fmt.Sprintf("%s held (locked at %s) when %s acquired at %s via %s",
			displays[e.from], fmtPos(fset, e.holdPos), displays[e.to], fmtPos(fset, e.acqPos), e.path))
	}
	pass.Reportf(anchor, "lock-order cycle %s: %s; two goroutines interleaving these paths deadlock",
		key, strings.Join(detail, "; "))
}
