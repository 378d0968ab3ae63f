// Package snapref verifies the snapshot/session refcount discipline: every
// acquired pin — Dataset.Acquire / Snapshot.Acquire, engine.Open (whose
// Session pins its dataset's current snapshot), or any function whose
// summary says it returns an acquired handle — must reach a matching
// Release/Close on every exit path of the acquiring function, or transfer
// ownership (return it, store it into a longer-lived structure, hand it to
// a callee that retains it).
//
// The check is flow-sensitive over the intra-procedural CFG and
// interprocedural through module summaries: a helper that calls
// Session.Close on its parameter settles the obligation at the call site,
// and a method like Model.Close that closes a receiver field counts as a
// release of the receiver. Release facts are MAY-release — a disposer
// whose internal fast path skips the refcount still settles the caller.
//
// Error-return paths are err-branch-sensitive: after `v, err := open()`,
// the `err != nil` branch holds nothing (the acquire failed), so returning
// from it without a release is not a leak — until err is reassigned by a
// later call, after which the branch no longer cancels the obligation.
package snapref

import (
	"go/ast"
	"go/types"

	"neurospatial/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "snapref",
	Doc: "acquired snapshot/session pins (Dataset.Acquire, engine.Open, Acquires-summary callees) " +
		"must be released on every exit path; release with Release/Close, defer it, or transfer ownership",
	Run: run,
	// Tests deliberately exercise error-mode Opens and lean on t.Fatal exits;
	// the pin contract binds production code.
	ExemptTests: true,
}

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

// acquire is one tracked acquisition: the call, the holder objects (the
// bound variable, or the root local of a field store like s.snap = ...),
// and the error variable bound alongside it, if any.
type acquire struct {
	call    *ast.CallExpr
	holders map[types.Object]bool
	errObj  types.Object
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := analysis.BuildCFG(body)
	if g.Unsupported {
		return // goto or unresolved branch: don't guess
	}
	mod, pkg := pass.Module, pass.Package
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			acq := acquireIn(pass, body, n)
			if acq == nil {
				continue
			}
			if len(acq.holders) == 0 {
				pass.Reportf(acq.call.Pos(),
					"result of %s is discarded; the acquired pin leaks", analysis.CalleeName(acq.call))
				continue
			}
			track(pass, mod, pkg, g, b, i, acq)
		}
	}
}

// acquireIn recognizes `v := acquire()`, `s.f = acquire()` (s local), and
// bare `acquire()` statements. Multi-value forms bind the error object for
// branch-sensitive error paths. An acquire nested deeper in an expression
// (composite literal, call argument) transfers ownership at birth; a direct
// `return acquire()` transfers to the caller — both skipped.
func acquireIn(pass *analysis.Pass, body *ast.BlockStmt, n ast.Node) *acquire {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil
		}
		call, ok := analysis.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok || !pass.Module.IsAcquire(pass.Package, call) {
			return nil
		}
		acq := &acquire{call: call, holders: map[types.Object]bool{}}
		for i, lhs := range s.Lhs {
			switch l := analysis.Unparen(lhs).(type) {
			case *ast.Ident:
				if l.Name == "_" {
					continue
				}
				obj := objOf(pass, l)
				if obj == nil {
					continue
				}
				if i > 0 && isErrorObj(obj) {
					acq.errObj = obj
					continue
				}
				acq.holders[obj] = true
			case *ast.SelectorExpr:
				// s.snap = acquire() where s is a body-local: track the root —
				// its Release/Close/return is the handle's release/transfer.
				// A root declared outside the body (receiver, parameter,
				// global) outlives the call, so the store is a transfer.
				root := analysis.RootIdentObj(pass.Package, l)
				if root != nil && isBodyLocal(root, body) {
					acq.holders[root] = true
				} else {
					return nil // stored beyond the function: transferred
				}
			default:
				return nil // stored into an element: transferred
			}
		}
		return acq
	case *ast.ExprStmt:
		call, ok := analysis.Unparen(s.X).(*ast.CallExpr)
		if !ok || !pass.Module.IsAcquire(pass.Package, call) {
			return nil
		}
		return &acquire{call: call, holders: map[types.Object]bool{}}
	}
	return nil
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

func isErrorObj(obj types.Object) bool {
	named, ok := obj.Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isBodyLocal reports whether obj is a variable declared inside body —
// receivers and parameters are declared in the signature and fail the
// position test.
func isBodyLocal(obj types.Object, body *ast.BlockStmt) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return body.Pos() <= v.Pos() && v.Pos() < body.End()
}

type useKind int

const (
	useNone useKind = iota
	useRead
	useRelease
	useEscape
	useLeakRet
)

// pathState walks one CFG path: whether the error bound at the acquire is
// still the acquire's own error (so an err != nil branch means the acquire
// failed and holds nothing).
type pathState struct {
	errValid bool
}

func track(pass *analysis.Pass, mod *analysis.Module, pkg *analysis.Package,
	g *analysis.CFG, b *analysis.Block, idx int, acq *acquire) {

	visited := map[*analysis.Block]bool{}
	var walk func(blk *analysis.Block, start int, st pathState) bool // true = leak reported
	walk = func(blk *analysis.Block, start int, st pathState) bool {
		skipSucc := -1
		for i := start; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			if acq.errObj != nil && st.errValid && reassignsErr(pass, n, acq) {
				st.errValid = false
			}
			switch classify(pass, mod, pkg, n, acq.holders) {
			case useRelease, useEscape:
				return false // settled on this path
			case useLeakRet:
				pass.Reportf(acq.call.Pos(),
					"%s pin is not released on every path: leaks at the exit on line %d "+
						"(release it, defer the release, or transfer ownership)",
					analysis.CalleeName(acq.call), pass.Fset.Position(n.Pos()).Line)
				return true
			}
			// An `err != nil` / `err == nil` condition closing the block
			// while the acquire's error is still live: the failure branch
			// holds nothing.
			if i == len(blk.Nodes)-1 && acq.errObj != nil && st.errValid {
				if neq, ok := errCond(pass, n, acq.errObj); ok {
					if neq {
						skipSucc = 0 // then-branch = failure
					} else if len(blk.Succs) > 1 {
						skipSucc = 1 // else-branch = failure
					}
				}
			}
		}
		if len(blk.Succs) == 0 {
			pass.Reportf(acq.call.Pos(),
				"%s pin is not released on every path: function can end on line %d still holding it",
				analysis.CalleeName(acq.call), pass.Fset.Position(endPos(blk, acq.call).Pos()).Line)
			return true
		}
		for si, s := range blk.Succs {
			if si == skipSucc || visited[s] {
				continue
			}
			visited[s] = true
			if walk(s, 0, st) {
				return true
			}
		}
		return false
	}
	walk(b, idx+1, pathState{errValid: acq.errObj != nil})
}

// errCond matches `err != nil` / `err == nil` over the tracked error object.
func errCond(pass *analysis.Pass, n ast.Node, errObj types.Object) (neq, ok bool) {
	be, isBin := n.(*ast.BinaryExpr)
	if !isBin {
		return false, false
	}
	op := be.Op.String()
	if op != "!=" && op != "==" {
		return false, false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := analysis.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := analysis.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if (isErr(be.X) && isNil(be.Y)) || (isErr(be.Y) && isNil(be.X)) {
		return op == "!=", true
	}
	return false, false
}

// reassignsErr reports whether n assigns a new value to the acquire's error
// variable (making later err-branches about a different operation).
func reassignsErr(pass *analysis.Pass, n ast.Node, acq *acquire) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := analysis.Unparen(lhs).(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == acq.errObj || pass.TypesInfo.Defs[id] == acq.errObj {
				return true
			}
		}
	}
	return false
}

func endPos(blk *analysis.Block, fallback ast.Node) ast.Node {
	if len(blk.Nodes) > 0 {
		return blk.Nodes[len(blk.Nodes)-1]
	}
	return fallback
}

// classify inspects one CFG node with respect to the tracked holders.
func classify(pass *analysis.Pass, mod *analysis.Module, pkg *analysis.Package,
	n ast.Node, objs map[types.Object]bool) useKind {

	exit := false
	switch s := n.(type) {
	case *ast.ReturnStmt:
		exit = true
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				exit = true
			}
		}
	}
	k := scan(pass, mod, pkg, n, objs, false)
	if k == useNone && exit {
		return useLeakRet
	}
	if k == useEscape && exit {
		return useEscape // `return v`: ownership moves to the caller
	}
	return k
}

// isReleaseCall reports whether call settles a tracked holder: a
// Release/Close (or ReleasesRecv-summary method) on a selector path rooted
// at the holder, or the holder passed to a parameter the callee releases.
func isReleaseCall(pass *analysis.Pass, mod *analysis.Module, pkg *analysis.Package,
	call *ast.CallExpr, objs map[types.Object]bool) bool {

	merged := mod.MergedCallSummary(pkg, call)
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		root := analysis.RootIdentObj(pkg, sel.X)
		if root != nil && objs[root] {
			if sel.Sel.Name == "Release" || sel.Sel.Name == "Close" {
				return true
			}
			if merged != nil && merged.ReleasesRecv {
				return true
			}
		}
	}
	if merged != nil {
		for i, arg := range call.Args {
			if id, ok := analysis.Unparen(arg).(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
				if i < len(merged.ReleasesParam) && merged.ReleasesParam[i] {
					return true
				}
			}
		}
	}
	return false
}

// scan recursively classifies holder uses under n — poolcheck's walk adapted
// to summary-aware call classification: a call that releases settles, one
// that retains (or is unknown) transfers, and one that merely borrows lets
// tracking continue.
func scan(pass *analysis.Pass, mod *analysis.Module, pkg *analysis.Package,
	n ast.Node, objs map[types.Object]bool, inFuncLit bool) useKind {

	result := useNone
	upgrade := func(k useKind) {
		if k == useRelease {
			result = useRelease
			return
		}
		if k > result && result != useRelease {
			result = k
		}
	}

	switch s := n.(type) {
	case *ast.DeferStmt:
		if isReleaseCall(pass, mod, pkg, s.Call, objs) {
			return useRelease
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// defer func() { ...; v.Close() }(): covers every later exit,
			// including panic-recover paths.
			found := useNone
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && isReleaseCall(pass, mod, pkg, c, objs) {
					found = useRelease
					return false
				}
				return true
			})
			if found == useRelease {
				return useRelease
			}
		}
		if mentions(pass, s.Call, objs) {
			return useEscape // deferred into unknown code: assume it takes over
		}
		return useNone
	case *ast.FuncLit:
		if mentions(pass, s, objs) {
			return useEscape // captured by a closure
		}
		return useNone
	case *ast.ReturnStmt:
		if mentions(pass, s, objs) {
			return useEscape
		}
		return useNone
	case *ast.CallExpr:
		if isReleaseCall(pass, mod, pkg, s, objs) {
			return useRelease
		}
		merged := mod.MergedCallSummary(pkg, s)
		// Method call on the holder (v.DoBatch(...)) that neither releases
		// nor is known to retain: a borrow — the obligation continues.
		for i, a := range s.Args {
			id, ok := analysis.Unparen(a).(*ast.Ident)
			if !ok || !objs[pass.TypesInfo.Uses[id]] {
				continue
			}
			if merged == nil {
				upgrade(useEscape) // unknown callee: assume transfer
			} else if i < len(merged.RetainsParam) && merged.RetainsParam[i] {
				upgrade(useEscape)
			} else {
				upgrade(useRead) // borrowed for the call's duration
			}
		}
		for _, a := range s.Args {
			if _, ok := analysis.Unparen(a).(*ast.Ident); ok {
				continue
			}
			upgrade(scan(pass, mod, pkg, a, objs, inFuncLit))
		}
		upgrade(scan(pass, mod, pkg, s.Fun, objs, inFuncLit))
		return result
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if e := analysis.Unparen(rhs); isHolderMethodValue(pass, e, objs) {
				// v2 := v.Close (a method value): aliases a release path —
				// treat as transfer. Plain field reads stay reads.
				upgrade(useEscape)
				continue
			}
			if id, ok := analysis.Unparen(rhs).(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
				upgrade(useEscape)
			} else {
				upgrade(scan(pass, mod, pkg, rhs, objs, inFuncLit))
			}
		}
		for _, lhs := range s.Lhs {
			upgrade(scan(pass, mod, pkg, lhs, objs, inFuncLit))
		}
		return result
	case *ast.CompositeLit:
		if mentions(pass, s, objs) {
			return useEscape
		}
		return useNone
	case *ast.SendStmt, *ast.GoStmt:
		if mentions(pass, s, objs) {
			return useEscape
		}
		return useNone
	case *ast.UnaryExpr:
		if s.Op.String() == "&" {
			if id, ok := analysis.Unparen(s.X).(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
				return useEscape
			}
		}
	case *ast.Ident:
		if objs[pass.TypesInfo.Uses[s]] {
			if inFuncLit {
				return useEscape
			}
			return useRead
		}
		return useNone
	}

	done := false
	ast.Inspect(n, func(m ast.Node) bool {
		if done || m == nil || m == n {
			return !done
		}
		switch m.(type) {
		case *ast.DeferStmt, *ast.FuncLit, *ast.ReturnStmt, *ast.CallExpr,
			*ast.AssignStmt, *ast.CompositeLit, *ast.SendStmt, *ast.GoStmt,
			*ast.UnaryExpr, *ast.Ident:
			k := scan(pass, mod, pkg, m, objs, inFuncLit)
			upgrade(k)
			if result == useRelease {
				done = true
			}
			return false
		}
		return true
	})
	return result
}

// isHolderMethodValue matches a method value bound to a tracked holder
// (v.Close used as a func, not called) — binding one aliases the release
// path, so the obligation transfers with it.
func isHolderMethodValue(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return false
	}
	root := analysis.RootIdentObj(pass.Package, sel.X)
	if root == nil {
		if id, ok := analysis.Unparen(sel.X).(*ast.Ident); ok {
			root = pass.TypesInfo.Uses[id]
		}
	}
	return root != nil && objs[root]
}

// mentions reports whether any tracked ident occurs under n.
func mentions(pass *analysis.Pass, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
