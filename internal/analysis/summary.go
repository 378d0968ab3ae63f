package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Effect is a bitset of side effects a statement or function performs,
// either directly or (for the propagated subset) through its callees.
type Effect uint16

const (
	// EffIO: any os-level file or directory operation.
	EffIO Effect = 1 << iota
	// EffWrite: a direct write to an *os.File. Not propagated — the callee
	// that wrote is responsible for its own write→fsync discipline.
	EffWrite
	// EffFsync: an *os.File Sync (directly or in a callee).
	EffFsync
	// EffDirFsync: a Sync on a read-only handle from os.Open — the
	// directory-fsync idiom that makes a rename durable.
	EffDirFsync
	// EffRename: a direct os.Rename. Not propagated — a callee performing
	// a full tmp→fsync→rename→dir-fsync swap already checked its own order.
	EffRename
	// EffWALAppend: a WAL append+sync (a method named Append on a WAL
	// receiver, directly or in a callee).
	EffWALAppend
)

// propagatedEffects are the bits a caller inherits from its callees.
const propagatedEffects = EffIO | EffFsync | EffDirFsync | EffWALAppend

// Summary is the bottom-up interprocedural fact sheet of one function,
// computed over SCCs of the call graph. Analyzers consult it at call sites:
// a flow-sensitive walk that reaches `h(v)` asks h's summary what happened
// to v (released? retained? put back in a pool?) and what effects ran.
//
// Release facts are MAY-release: a designated disposer (Session.Close
// releases behind a CAS; Snapshot.Release decrements a refcount) settles the
// caller's obligation even when some internal path skips the actual release.
type Summary struct {
	// Acquires: the function returns a handle its caller must release —
	// the result of Dataset.Acquire / Snapshot.Acquire, an engine.Open
	// with a WithDataset option, or a callee that Acquires, flowing out
	// through a return.
	Acquires bool
	// ReleasesRecv: calling this method settles the receiver's pin
	// obligation (it calls Release/Close on the receiver or one of the
	// receiver's fields, possibly through another releasing method).
	ReleasesRecv bool
	// ReleasesParam[i]: passing a tracked handle as the i-th parameter
	// settles its obligation (snapshot/session Release/Close discipline).
	ReleasesParam []bool
	// PutsParam[i]: the i-th parameter is returned to a sync.Pool
	// (Pool.Put or a put* helper), the poolcheck release discipline.
	PutsParam []bool
	// RetainsParam[i]: the i-th parameter may outlive the call — stored in
	// a field, global, slice, channel or closure, returned, or passed on
	// to an unknown function. A call that neither releases nor retains a
	// tracked value is a borrow: the caller still holds the obligation.
	RetainsParam []bool
	// Effects the function performs, directly or transitively.
	Effects Effect
	// Locks: names of annotated mutexes the function may acquire,
	// directly or transitively.
	Locks map[string]bool
}

func (s *Summary) equal(o *Summary) bool {
	if s.Acquires != o.Acquires || s.ReleasesRecv != o.ReleasesRecv ||
		s.Effects != o.Effects || len(s.Locks) != len(o.Locks) {
		return false
	}
	for k := range s.Locks {
		if !o.Locks[k] {
			return false
		}
	}
	eqBools := func(a, b []bool) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	return eqBools(s.ReleasesParam, o.ReleasesParam) &&
		eqBools(s.PutsParam, o.PutsParam) &&
		eqBools(s.RetainsParam, o.RetainsParam)
}

// computeSummaries fills m.Summaries bottom-up over SCCs, iterating each
// component to a fixpoint (all facts are monotone unions, so this
// terminates quickly).
func (m *Module) computeSummaries() {
	for _, comp := range m.sccs() {
		for i := 0; ; i++ {
			changed := false
			for _, key := range comp {
				next := m.summarize(m.Funcs[key])
				if prev, ok := m.Summaries[key]; !ok || !prev.equal(next) {
					m.Summaries[key] = next
					changed = true
				}
			}
			if !changed || i > 8 {
				break
			}
		}
	}
}

// walkBody visits every node of body in pre-order, skipping nested function
// literals: a literal is its own FuncNode and contributes through call edges,
// not through syntactic containment.
func walkBody(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// summarize computes one function's summary against the current state of
// m.Summaries (callees in the same SCC may still be converging).
func (m *Module) summarize(node *FuncNode) *Summary {
	pkg := node.Pkg
	body := node.Body()
	s := &Summary{Locks: map[string]bool{}}

	recvObj, paramObjs := node.bindings()
	s.ReleasesParam = make([]bool, len(paramObjs))
	s.PutsParam = make([]bool, len(paramObjs))
	s.RetainsParam = make([]bool, len(paramObjs))
	paramIndex := map[types.Object]int{}
	for i, p := range paramObjs {
		if p != nil {
			paramIndex[p] = i
		}
	}
	tracked := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		_, isParam := paramIndex[obj]
		return isParam || obj == recvObj
	}
	markRelease := func(obj types.Object) {
		if obj == recvObj && obj != nil {
			s.ReleasesRecv = true
		}
		if i, ok := paramIndex[obj]; ok {
			s.ReleasesParam[i] = true
		}
	}
	markPut := func(obj types.Object) {
		if i, ok := paramIndex[obj]; ok {
			s.PutsParam[i] = true
		}
	}
	markRetain := func(obj types.Object) {
		if i, ok := paramIndex[obj]; ok {
			s.RetainsParam[i] = true
		}
	}

	openVars := osOpenVars(pkg, body)
	var holders []types.Object // locals holding an acquired handle

	walkBody(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			m.summarizeCall(pkg, st, s, openVars, tracked, markRelease, markPut, markRetain)

		case *ast.AssignStmt:
			// Acquired-handle holders: `v := acquire()`, `s.snap = acquire()`
			// track the root local so a later `return v` / `return s` marks
			// the function as Acquires.
			if len(st.Rhs) == 1 {
				if call, ok := Unparen(st.Rhs[0]).(*ast.CallExpr); ok && m.isAcquireCall(pkg, call) {
					for _, lhs := range st.Lhs {
						obj := rootIdentObj(pkg, lhs)
						// The error result of `h, err := acquire()` carries no
						// obligation: returning err must not read as returning
						// the handle.
						if obj == nil || isErrorType(obj.Type()) {
							continue
						}
						holders = append(holders, obj)
					}
				}
			}
			// Tracked params on an assignment RHS escape into the LHS.
			for _, rhs := range st.Rhs {
				if id, ok := Unparen(rhs).(*ast.Ident); ok && tracked(pkg.Info.Uses[id]) {
					markRetain(pkg.Info.Uses[id])
				}
			}

		case *ast.ReturnStmt:
			for _, res := range st.Results {
				e := Unparen(res)
				if call, ok := e.(*ast.CallExpr); ok && m.isAcquireCall(pkg, call) {
					s.Acquires = true
				}
				if id, ok := e.(*ast.Ident); ok {
					obj := pkg.Info.Uses[id]
					if tracked(obj) {
						markRetain(obj)
					}
					for _, h := range holders {
						if obj == h {
							s.Acquires = true
						}
					}
				}
			}

		case *ast.FuncLit:
			// unreachable: walkBody skips literals

		case *ast.SendStmt, *ast.GoStmt, *ast.CompositeLit:
			ast.Inspect(n, func(d ast.Node) bool {
				if id, ok := d.(*ast.Ident); ok && tracked(pkg.Info.Uses[id]) {
					markRetain(pkg.Info.Uses[id])
				}
				return true
			})

		case *ast.UnaryExpr:
			if st.Op.String() == "&" {
				if id, ok := Unparen(st.X).(*ast.Ident); ok && tracked(pkg.Info.Uses[id]) {
					markRetain(pkg.Info.Uses[id])
				}
			}
		}
		return true
	})

	// Captures: a tracked param mentioned inside any nested literal escapes
	// into the closure.
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(d ast.Node) bool {
			if id, ok := d.(*ast.Ident); ok && tracked(pkg.Info.Uses[id]) {
				markRetain(pkg.Info.Uses[id])
			}
			return true
		})
		return false
	})

	// Holder mentioned in a return found before the assignment in source
	// order is impossible (Go scoping), so one pass suffices. A second
	// return-scan catches the `v := acquire(); ...; return v` case when the
	// return precedes the assign in AST walk order across files — it can't,
	// but the rescan is cheap and makes the logic order-independent.
	if !s.Acquires && len(holders) > 0 {
		walkBody(body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				if id, ok := Unparen(res).(*ast.Ident); ok {
					obj := pkg.Info.Uses[id]
					for _, h := range holders {
						if obj == h {
							s.Acquires = true
						}
					}
				}
			}
			return true
		})
	}

	return s
}

// summarizeCall folds one call's contribution into s: direct effects,
// lock acquisitions, callee-propagated facts, and what the
// call does to tracked (receiver/param) objects.
func (m *Module) summarizeCall(pkg *Package, call *ast.CallExpr, s *Summary,
	openVars map[types.Object]bool, tracked func(types.Object) bool,
	markRelease, markPut, markRetain func(types.Object)) {

	s.Effects |= DirectCallEffects(pkg, call, openVars)

	if info, acquired, ok := m.LockCall(pkg, call); ok && acquired {
		s.Locks[info.Name] = true
	}

	merged := m.MergedCallSummary(pkg, call)
	if merged != nil {
		s.Effects |= merged.Effects
		for l := range merged.Locks {
			s.Locks[l] = true
		}
	}

	// Receiver-rooted release: r.Release(), r.snap.Close(), or a method on
	// r (or r's field) whose summary releases its receiver.
	if sel, ok := Unparen(call.Fun).(*ast.SelectorExpr); ok {
		root := rootIdentObj(pkg, sel.X)
		if tracked(root) {
			releasing := sel.Sel.Name == "Release" || sel.Sel.Name == "Close" ||
				(merged != nil && merged.ReleasesRecv)
			if releasing {
				markRelease(root)
			}
		}
	}

	// Pool release: sync.Pool.Put or a same-package put* helper.
	isPut := isPoolPut(pkg, call)

	// Arguments: tracked objects passed by position pick up the callee's
	// per-parameter facts; unknown callees retain conservatively.
	for i, arg := range call.Args {
		id, ok := Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pkg.Info.Uses[id]
		if !tracked(obj) {
			continue
		}
		switch {
		case isPut:
			markPut(obj)
		case merged != nil:
			if i < len(merged.ReleasesParam) && merged.ReleasesParam[i] {
				markRelease(obj)
			}
			if i < len(merged.PutsParam) && merged.PutsParam[i] {
				markPut(obj)
			}
			if i < len(merged.RetainsParam) && merged.RetainsParam[i] {
				markRetain(obj)
			}
		default:
			markRetain(obj) // unknown callee: assume it keeps the value
		}
	}
}

func growBools(dst *[]bool, src []bool) {
	for len(*dst) < len(src) {
		*dst = append(*dst, false)
	}
	for i, v := range src {
		if v {
			(*dst)[i] = true
		}
	}
}

// bindings resolves the receiver and parameter objects of a function node.
func (n *FuncNode) bindings() (recv types.Object, params []types.Object) {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
		if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
			recv = n.Pkg.Info.Defs[n.Decl.Recv.List[0].Names[0]]
		}
	} else {
		ft = n.Lit.Type
	}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			if len(field.Names) == 0 {
				params = append(params, nil) // unnamed parameter
				continue
			}
			for _, name := range field.Names {
				params = append(params, n.Pkg.Info.Defs[name])
			}
		}
	}
	return recv, params
}

// MergedCallSummary unions the summaries of every resolved target of call —
// what a flow-sensitive analyzer knows about a call site. May-facts (release,
// retain, effects) union across CHA targets. Nil when no target has
// a summary: the callee lives outside the module and nothing is known.
func (m *Module) MergedCallSummary(pkg *Package, call *ast.CallExpr) *Summary {
	var merged *Summary
	for _, t := range m.Targets(pkg, call) {
		ts := m.Summaries[t]
		if ts == nil {
			continue
		}
		if merged == nil {
			merged = &Summary{Locks: map[string]bool{}}
		}
		merged.Acquires = merged.Acquires || ts.Acquires
		merged.Effects |= ts.Effects & propagatedEffects
		for l := range ts.Locks {
			merged.Locks[l] = true
		}
		merged.ReleasesRecv = merged.ReleasesRecv || ts.ReleasesRecv
		growBools(&merged.ReleasesParam, ts.ReleasesParam)
		growBools(&merged.PutsParam, ts.PutsParam)
		growBools(&merged.RetainsParam, ts.RetainsParam)
	}
	return merged
}

// IsAcquire reports whether call yields a handle the caller must release —
// the snapref acquire intrinsics plus Acquires summaries.
func (m *Module) IsAcquire(pkg *Package, call *ast.CallExpr) bool {
	return m.isAcquireCall(pkg, call)
}

// CalleeName exposes the bare callee name of a call expression.
func CalleeName(call *ast.CallExpr) string { return calleeName(call) }

// RootIdentObj exposes selector-root resolution: s.snap.ref -> object of s.
func RootIdentObj(pkg *Package, e ast.Expr) types.Object { return rootIdentObj(pkg, e) }

// isAcquireCall recognizes acquiring calls: a method named Acquire with one
// result, a call to a function named Open with a WithDataset(...) argument,
// or a call to a module function whose summary Acquires.
func (m *Module) isAcquireCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Acquire" {
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
					return true
				}
			}
		}
	}
	if calleeName(call) == "Open" {
		for _, arg := range call.Args {
			if c, ok := Unparen(arg).(*ast.CallExpr); ok && calleeName(c) == "WithDataset" {
				return true
			}
		}
	}
	for _, t := range m.Targets(pkg, call) {
		if ts := m.Summaries[t]; ts != nil && ts.Acquires {
			return true
		}
	}
	return false
}

// calleeName returns the bare name of a call's target: f(...) -> "f",
// pkg.F(...) / x.M(...) -> "F"/"M".
func calleeName(call *ast.CallExpr) string {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// rootIdentObj unwraps a selector path (s.snap.ref -> s) or a plain ident to
// the object of its root identifier.
func rootIdentObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch v := Unparen(e).(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[v]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// osOpenVars collects variables assigned from os.Open in body — read-only
// handles, which in this codebase means directory handles opened to fsync.
func osOpenVars(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	walkBody(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Open" {
			return true
		}
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); !ok ||
			fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// DirectCallEffects classifies the intrinsic effects of one call expression,
// with no callee propagation: *os.File writes/syncs, os package calls, and
// WAL appends. openVars marks read-only handles from os.Open, whose Sync is
// the directory-fsync idiom (you only fsync a read-only handle if it is a
// directory).
func DirectCallEffects(pkg *Package, call *ast.CallExpr, openVars map[types.Object]bool) Effect {
	sel, ok := Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	// Package-qualified os.* call?
	if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "os" {
		if _, isSel := pkg.Info.Selections[sel]; !isSel {
			switch fn.Name() {
			case "Rename":
				return EffRename | EffIO
			case "Open", "OpenFile", "Create", "CreateTemp", "Remove", "RemoveAll",
				"Mkdir", "MkdirAll", "MkdirTemp", "ReadFile", "WriteFile", "ReadDir",
				"Truncate", "Stat", "Lstat":
				return EffIO
			}
			return 0
		}
	}
	// Method on *os.File?
	if s, ok := pkg.Info.Selections[sel]; ok {
		if isOSFile(s.Recv()) {
			switch sel.Sel.Name {
			case "Sync":
				if openVars[rootIdentObj(pkg, sel.X)] {
					return EffDirFsync | EffIO
				}
				return EffFsync | EffIO
			case "Write", "WriteString", "WriteAt":
				return EffWrite | EffIO
			case "Read", "ReadAt", "Seek", "Truncate", "Close", "Stat", "ReadDir":
				return EffIO
			}
			return 0
		}
		// WAL append+sync: a method named Append on a WAL-named receiver.
		if sel.Sel.Name == "Append" && namedTypeName(s.Recv()) == "WAL" {
			return EffWALAppend | EffIO
		}
	}
	return 0
}

func isOSFile(t types.Type) bool {
	return namedTypePath(t) == "os.File"
}

func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func namedTypePath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}

// isPoolPut matches sync.Pool.Put and same-package put* helpers — the
// poolcheck release discipline, shared here so summaries can mark PutsParam.
func isPoolPut(pkg *Package, call *ast.CallExpr) bool {
	if sel, ok := Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" {
		if tv, ok := pkg.Info.Types[sel.X]; ok && isSyncPoolType(tv.Type) {
			return true
		}
	}
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	name := id.Name
	if !strings.HasPrefix(name, "put") || len(name) == len("put") {
		return false
	}
	if c := name[len("put")]; c < 'A' || c > 'Z' {
		return false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() == pkg.Types
}

func isSyncPoolType(t types.Type) bool {
	return namedTypePath(t) == "sync.Pool"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
