// Package lockorder enforces the module's mutex discipline over annotated
// locks. A struct field of type sync.Mutex/sync.RWMutex carrying
//
//	//neurospatial:lock <name> [noio] [< <other>]...
//
// joins the module-wide lock-acquisition graph: each `< other` declares
// that other is acquired before this lock. The analyzer walks every
// function's CFG with the set of held locks and checks three invariants:
//
//  1. Order: an observed acquisition held→acquired that closes a cycle in
//     the combined declared + observed graph is a deadlock candidate.
//  2. Re-entry: Lock on a mutex already held — directly or by calling a
//     function whose summary says it acquires the same lock — self-deadlocks
//     (Go mutexes are not reentrant).
//  3. noio: a lock marked noio bounds a critical section that must not
//     perform file I/O or fsync; any call with an I/O effect (direct or via
//     callee summaries) while such a lock is held is a finding.
//
// Lock identity resolves through field objects, so per-package analysis
// covers direct Lock/Unlock sites; callee lock sets from function
// summaries supply the interprocedural edges.
package lockorder

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"neurospatial/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "annotated mutexes (//neurospatial:lock) must be acquired in a consistent order, " +
		"never re-entered, and noio locks must not guard file I/O or fsync",
	Run: run,
}

const ioEffects = analysis.EffIO | analysis.EffFsync | analysis.EffDirFsync

type edge struct {
	from, to string
	pos      token.Pos
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, edgeSeen: map[[2]string]bool{}, reported: map[token.Pos]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(fn.Body)
			}
			return true
		})
	}
	c.checkCycles()
	return nil
}

type checker struct {
	pass     *analysis.Pass
	observed []edge
	edgeSeen map[[2]string]bool
	reported map[token.Pos]bool
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	g := analysis.BuildCFG(body)
	if g.Unsupported {
		return
	}
	// visited keys each block by the held-set signature it was entered
	// with, so loops terminate while distinct lock contexts still walk.
	visited := map[*analysis.Block]map[string]bool{}
	var walk func(b *analysis.Block, held map[string]bool)
	walk = func(b *analysis.Block, held map[string]bool) {
		sig := heldSig(held)
		if visited[b] == nil {
			visited[b] = map[string]bool{}
		}
		if visited[b][sig] {
			return
		}
		visited[b][sig] = true
		held = copySet(held)
		for _, n := range b.Nodes {
			if d, ok := n.(*ast.DeferStmt); ok {
				// defer mu.Unlock() keeps the lock held to function end —
				// exactly how the walk already models an un-removed lock —
				// and a deferred release is never an in-section operation.
				_ = d
				continue
			}
			c.visitCalls(n, held)
		}
		for _, s := range b.Succs {
			walk(s, held)
		}
	}
	walk(g.Entry, map[string]bool{})
}

// visitCalls processes every call under n in source order, updating held.
func (c *checker) visitCalls(n ast.Node, held map[string]bool) {
	mod, pkg := c.pass.Module, c.pass.Package
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // literals walk separately, with their own held set
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if info, acquired, ok := mod.LockCall(pkg, call); ok {
			if acquired {
				c.acquire(call, info, held)
			} else {
				delete(held, info.Name)
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		merged := mod.MergedCallSummary(pkg, call)
		// Interprocedural edges and re-entry through callee lock sets.
		if merged != nil {
			var names []string
			for l := range merged.Locks {
				names = append(names, l)
			}
			sort.Strings(names)
			for _, l := range names {
				if held[l] {
					c.reportOnce(call.Pos(),
						"calling %s while holding %s: the callee acquires %s again and self-deadlocks",
						analysis.CalleeName(call), l, l)
					continue
				}
				for h := range held {
					c.observe(h, l, call.Pos())
				}
			}
		}
		// noio critical sections.
		eff := analysis.DirectCallEffects(pkg, call, nil)
		if merged != nil {
			eff |= merged.Effects
		}
		if eff&ioEffects != 0 {
			for h := range held {
				li := mod.LockByName(h)
				if li != nil && li.NoIO {
					c.reportOnce(call.Pos(),
						"%s performs file I/O while %s is held; %s is noio — move the I/O outside the critical section",
						analysis.CalleeName(call), h, h)
				}
			}
		}
		return true
	})
}

func (c *checker) acquire(call *ast.CallExpr, info *analysis.LockInfo, held map[string]bool) {
	rlock := false
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		rlock = sel.Sel.Name == "RLock"
	}
	if held[info.Name] && !rlock {
		c.reportOnce(call.Pos(), "%s is locked while already held: Go mutexes are not reentrant", info.Name)
	}
	for h := range held {
		if h != info.Name {
			c.observe(h, info.Name, call.Pos())
		}
	}
	held[info.Name] = true
}

func (c *checker) observe(from, to string, pos token.Pos) {
	key := [2]string{from, to}
	if c.edgeSeen[key] {
		return
	}
	c.edgeSeen[key] = true
	c.observed = append(c.observed, edge{from: from, to: to, pos: pos})
}

// checkCycles builds the combined declared + observed graph and reports
// each observed edge that closes a cycle, plus declared-order cycles at
// their annotation sites (only for locks declared in this package, so
// multi-package runs report once).
func (c *checker) checkCycles() {
	mod := c.pass.Module
	adj := map[string][]string{}
	addEdge := func(from, to string) { adj[from] = append(adj[from], to) }
	for _, li := range mod.Locks() {
		for _, before := range li.Before {
			addEdge(before, li.Name)
		}
	}
	declared := copyAdj(adj)
	for _, e := range c.observed {
		addEdge(e.from, e.to)
	}
	for _, e := range c.observed {
		if reachable(declared, e.from, e.to) {
			continue // the annotations sanction this direction
		}
		if reachable(adj, e.to, e.from) {
			c.reportOnce(e.pos,
				"lock order violation: %s acquired while holding %s, but the lock graph orders %s before %s",
				e.to, e.from, e.to, e.from)
		}
	}
	for _, li := range mod.Locks() {
		if li.Pkg == c.pass.Package && reachable(declared, li.Name, li.Name) {
			c.reportOnce(li.Pos,
				"declared lock order for %s is cyclic: fix the `<` annotations", li.Name)
		}
	}
}

func reachable(adj map[string][]string, from, to string) bool {
	seen := map[string]bool{}
	var dfs func(n string) bool
	dfs = func(n string) bool {
		for _, next := range adj[n] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(from)
}

func (c *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

func heldSig(held map[string]bool) string {
	if len(held) == 0 {
		return ""
	}
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyAdj(adj map[string][]string) map[string][]string {
	out := make(map[string][]string, len(adj))
	for k, v := range adj {
		out[k] = append([]string(nil), v...)
	}
	return out
}
