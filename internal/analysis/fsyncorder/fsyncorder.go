// Package fsyncorder checks the durability ordering protocol:
//
//  1. WAL-before-publish: in any function that both appends to the WAL and
//     publishes an epoch (an assignment to a `.cur` snapshot field), the
//     append must come first on every path. Publishing an epoch whose WAL
//     record is not yet durable un-commits acknowledged batches on crash.
//  2. Atomic install: every os.Rename must be preceded by an fsync of the
//     freshly written file on all paths (tmp-write → fsync → rename), and
//     followed by a directory fsync before any success return — a rename
//     without the directory sync can vanish on power loss.
//  3. Synced writes: a function that writes an *os.File directly must pass
//     some fsync effect between the write and every success return.
//
// Effects are gathered per call site from direct intrinsics (os.Rename,
// File.Sync, File.Write, WAL.Append) plus callee summaries, so helpers like
// syncDir(dir) or a write-and-sync wrapper satisfy the protocol for their
// callers. Failure returns — `return err`, `return fmt.Errorf(...)` — are
// exempt: a writer that aborts with an error makes no durability promise.
package fsyncorder

import (
	"go/ast"
	"go/token"

	"neurospatial/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fsyncorder",
	Doc: "durability ordering: WAL append before epoch publish, tmp-write→fsync→rename→dir-fsync " +
		"for atomic installs, and fsync between file writes and success returns",
	Run: run,
}

const anyFsync = analysis.EffFsync | analysis.EffDirFsync | analysis.EffWALAppend

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := analysis.BuildCFG(body)
	if g.Unsupported {
		return
	}
	checkWALPublish(pass, body, g)
	for _, site := range callSites(pass, g, func(eff analysis.Effect) bool {
		return eff&analysis.EffRename != 0
	}) {
		checkFsyncBeforeRename(pass, g, site)
		checkDirFsyncAfter(pass, g, site,
			analysis.EffDirFsync,
			"os.Rename reaches a success return on line %d without a directory fsync; the rename may not survive power loss")
	}
	for _, site := range callSites(pass, g, func(eff analysis.Effect) bool {
		return eff&analysis.EffWrite != 0
	}) {
		checkDirFsyncAfter(pass, g, site, anyFsync,
			"file write reaches a success return on line %d without an fsync; the data may not be durable")
	}
}

// site pins one interesting call to its CFG position.
type site struct {
	call  *ast.CallExpr
	block *analysis.Block
	node  int // index in block.Nodes
}

// callSites finds every call in the CFG whose *direct* effects satisfy want.
// Only direct intrinsics define sites — a callee that renames internally is
// responsible for its own ordering and has already been checked.
func callSites(pass *analysis.Pass, g *analysis.CFG, want func(analysis.Effect) bool) []site {
	var out []site
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			for _, call := range callsIn(n) {
				if want(analysis.DirectCallEffects(pass.Package, call, nil)) {
					out = append(out, site{call: call, block: b, node: i})
				}
			}
		}
	}
	return out
}

// callsIn lists the calls under one CFG node in source order, not descending
// into function literals (they are separate CFGs).
func callsIn(n ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := m.(*ast.CallExpr); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// callEffects is the direct + summarized effect set of one call.
func callEffects(pass *analysis.Pass, call *ast.CallExpr) analysis.Effect {
	eff := analysis.DirectCallEffects(pass.Package, call, nil)
	if merged := pass.Module.MergedCallSummary(pass.Package, call); merged != nil {
		eff |= merged.Effects
	}
	return eff
}

// checkWALPublish enforces rule 1 inside one function: if the body both
// publishes (assigns a `.cur` field) and appends to the WAL, no append may
// execute after a publish on any path. In-memory datasets publish without
// any WAL call and are untouched.
func checkWALPublish(pass *analysis.Pass, body *ast.BlockStmt, g *analysis.CFG) {
	hasAppend, hasPublish := false, false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if isPublish(n) {
				hasPublish = true
			}
			for _, c := range callsIn(n) {
				if callEffects(pass, c)&analysis.EffWALAppend != 0 {
					hasAppend = true
				}
			}
		}
	}
	if !hasAppend || !hasPublish {
		return
	}
	type key struct {
		b         *analysis.Block
		published bool
	}
	visited := map[key]bool{}
	reported := map[token.Pos]bool{}
	var walk func(b *analysis.Block, published bool)
	walk = func(b *analysis.Block, published bool) {
		if visited[key{b, published}] {
			return
		}
		visited[key{b, published}] = true
		for _, n := range b.Nodes {
			for _, c := range callsIn(n) {
				if published && callEffects(pass, c)&analysis.EffWALAppend != 0 && !reported[c.Pos()] {
					reported[c.Pos()] = true
					pass.Reportf(c.Pos(),
						"WAL append after the epoch publish: a crash here leaves a published epoch with no durable record — append (and sync) before assigning .cur")
				}
			}
			if isPublish(n) {
				published = true
			}
		}
		for _, s := range b.Succs {
			walk(s, published)
		}
	}
	walk(g.Entry, false)
}

// isPublish matches the repo's epoch-publish idiom: an assignment whose
// target is a `.cur` field (Dataset.cur holds the current snapshot).
func isPublish(n ast.Node) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if sel, ok := analysis.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "cur" {
			return true
		}
	}
	return false
}

// checkFsyncBeforeRename enforces the tmp-write→fsync→rename prefix: every
// path from entry to the rename must pass a call with an fsync effect.
func checkFsyncBeforeRename(pass *analysis.Pass, g *analysis.CFG, s site) {
	type key struct {
		b      *analysis.Block
		synced bool
	}
	visited := map[key]bool{}
	reported := false
	var walk func(b *analysis.Block, synced bool)
	walk = func(b *analysis.Block, synced bool) {
		if reported || visited[key{b, synced}] {
			return
		}
		visited[key{b, synced}] = true
		for _, n := range b.Nodes {
			for _, c := range callsIn(n) {
				if c == s.call {
					if !synced {
						reported = true
						pass.Reportf(s.call.Pos(),
							"os.Rename without a preceding fsync of the written file: the install is not atomic — sync the temp file first")
					}
					return
				}
				if callEffects(pass, c)&(analysis.EffFsync|analysis.EffWALAppend) != 0 {
					synced = true
				}
			}
		}
		for _, sb := range b.Succs {
			walk(sb, synced)
		}
	}
	walk(g.Entry, false)
}

// checkDirFsyncAfter walks forward from the site: every success exit
// reachable from it must pass a call carrying one of the wanted effects.
func checkDirFsyncAfter(pass *analysis.Pass, g *analysis.CFG, s site, want analysis.Effect, format string) {
	type key struct {
		b      *analysis.Block
		synced bool
	}
	visited := map[key]bool{}
	reported := false
	report := func(at ast.Node) {
		if !reported {
			reported = true
			pass.Reportf(s.call.Pos(), format, pass.Fset.Position(at.Pos()).Line)
		}
	}
	var walk func(b *analysis.Block, start int, synced bool)
	walk = func(b *analysis.Block, start int, synced bool) {
		if reported {
			return
		}
		if start == 0 {
			if visited[key{b, synced}] {
				return
			}
			visited[key{b, synced}] = true
		}
		var last ast.Node
		for i := start; i < len(b.Nodes); i++ {
			n := b.Nodes[i]
			last = n
			for _, c := range callsIn(n) {
				if c == s.call {
					continue // the site itself (seen when start==s.node)
				}
				if callEffects(pass, c)&want != 0 {
					synced = true
				}
			}
			if ret, ok := n.(*ast.ReturnStmt); ok && !synced && isSuccessReturn(ret) {
				report(ret)
				return
			}
		}
		if len(b.Succs) == 0 {
			// Falling off the end of the body is a success exit unless the
			// block ended in an explicit return (handled above) or a panic.
			if !synced && !endsInPanicOrFailure(last) {
				if last == nil {
					last = s.call
				}
				report(last)
			}
			return
		}
		for _, sb := range b.Succs {
			walk(sb, 0, synced)
		}
	}
	walk(s.block, s.node, false)
}

// isSuccessReturn reports whether ret promises success: `return nil` in the
// error position, or a bare `return` from an error-less function. A return
// whose last result is an identifier or a call (an error variable, a
// fmt.Errorf, a helper whose own effects were already accumulated) makes no
// durability promise here.
func isSuccessReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true
	}
	last := analysis.Unparen(ret.Results[len(ret.Results)-1])
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "nil"
}

func endsInPanicOrFailure(last ast.Node) bool {
	switch s := last.(type) {
	case *ast.ReturnStmt:
		return true // explicit returns were classified in the node loop
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
