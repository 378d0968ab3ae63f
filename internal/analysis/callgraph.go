package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
)

// FuncKey names one function across the whole module. *types.Func identity is
// useless for that — every package the source importer type-checks gets its
// own object graph, so the same function has a distinct object per importing
// package — hence a stable string: "pkgpath.Recv.Name" for methods,
// "pkgpath..Name" for functions, and "pkgpath..funclit@file:line:col" for
// function literals.
type FuncKey string

// FuncNode is one function in the module call graph: a declaration or a
// function literal, the package whose TypesInfo covers its body, and its
// outgoing static call edges (interface calls CHA-expanded, function values
// resolved through local/field assignments, bare references to functions —
// method values, callbacks — included as may-call edges).
type FuncNode struct {
	Key   FuncKey
	Name  string        // declared name; "" for literals
	Decl  *ast.FuncDecl // nil for literals
	Lit   *ast.FuncLit  // nil for declarations
	Pkg   *Package
	Calls []FuncKey
}

// Body returns the function's block statement.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Module is the interprocedural context shared by the analyzers: every loaded
// package, the call graph over them, and one bottom-up Summary per function.
// Build it once per neurolint run and hand it to every analysis.Run call.
type Module struct {
	Pkgs      []*Package
	Funcs     map[FuncKey]*FuncNode
	Summaries map[FuncKey]*Summary

	// funcVals maps function-typed variables and struct fields to the
	// functions assigned into them anywhere in their declaring package —
	// how a call through d.onCommit resolves to the closure installHook
	// stored there. Keyed per package because object identity is
	// per-type-check.
	funcVals map[*Package]map[types.Object][]FuncKey

	// namedTypes lists every named type declared in the module, the CHA
	// universe for interface calls.
	namedTypes []*types.Named

	// chaCache memoizes interface-method expansion by interface identity
	// and method name.
	chaCache map[chaKey][]FuncKey

	// locks maps annotated mutex field objects to their declared lock info,
	// plus a by-name view for cross-package summary propagation.
	locks      map[types.Object]*LockInfo
	lockByName map[string]*LockInfo
}

type chaKey struct {
	iface  *types.Interface
	method string
}

// KeyForFunc derives the module-wide key of a declared function or method.
func KeyForFunc(fn *types.Func) FuncKey {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		} else {
			recv = t.String()
		}
	}
	return FuncKey(pkg + "." + recv + "." + fn.Name())
}

// keyForLit derives a key for a function literal from its position — stable
// across type-checks because the FileSet is shared by the whole load.
func keyForLit(pkg *Package, lit *ast.FuncLit) FuncKey {
	pos := pkg.Fset.Position(lit.Pos())
	return FuncKey(fmt.Sprintf("%s..funclit@%s:%d:%d",
		pkg.ImportPath, filepath.Base(pos.Filename), pos.Line, pos.Column))
}

// BuildModule constructs the call graph and summaries for pkgs. Analyzers
// receive the result through Pass.Module.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:       pkgs,
		Funcs:      map[FuncKey]*FuncNode{},
		Summaries:  map[FuncKey]*Summary{},
		funcVals:   map[*Package]map[types.Object][]FuncKey{},
		chaCache:   map[chaKey][]FuncKey{},
		locks:      map[types.Object]*LockInfo{},
		lockByName: map[string]*LockInfo{},
	}
	for _, pkg := range pkgs {
		m.collectTypes(pkg)
		m.collectLocks(pkg)
	}
	for _, pkg := range pkgs {
		m.collectFuncs(pkg)
	}
	for _, pkg := range pkgs {
		m.collectFuncVals(pkg)
	}
	for _, node := range m.Funcs {
		m.collectCalls(node)
	}
	m.computeSummaries()
	return m
}

// Summary returns the summary for key, or nil when the function's body is
// outside the module (stdlib, out-of-scope load).
func (m *Module) Summary(key FuncKey) *Summary {
	return m.Summaries[key]
}

// collectTypes records every named (non-alias) type in pkg's scope.
func (m *Module) collectTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			m.namedTypes = append(m.namedTypes, named)
		}
	}
}

// collectFuncs registers every function declaration and literal in pkg.
func (m *Module) collectFuncs(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					key := KeyForFunc(fn)
					m.Funcs[key] = &FuncNode{Key: key, Name: fd.Name.Name, Decl: fd, Pkg: pkg}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				key := keyForLit(pkg, lit)
				m.Funcs[key] = &FuncNode{Key: key, Lit: lit, Pkg: pkg}
			}
			return true
		})
	}
}

// collectFuncVals records, per function-typed variable or struct field, the
// functions assigned into it anywhere in pkg: `d.onCommit = closure`,
// `var emit = handler`, and composite literals with function-valued fields.
func (m *Module) collectFuncVals(pkg *Package) {
	vals := map[types.Object][]FuncKey{}
	add := func(obj types.Object, e ast.Expr) {
		if obj == nil || e == nil {
			return
		}
		if key, ok := m.funcValueKey(pkg, e); ok {
			vals[obj] = append(vals[obj], key)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						add(m.lhsObject(pkg, lhs), s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						add(pkg.Info.Defs[name], s.Values[i])
					}
				}
			case *ast.CompositeLit:
				tv, ok := pkg.Info.Types[s]
				if !ok {
					return true
				}
				st, ok := structOf(tv.Type)
				if !ok {
					return true
				}
				for _, el := range s.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i).Name() == key.Name {
							add(st.Field(i), kv.Value)
						}
					}
				}
			}
			return true
		})
	}
	m.funcVals[pkg] = vals
}

func structOf(t types.Type) (*types.Struct, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// lhsObject resolves the object an assignment writes: a plain identifier or
// the field of a selector.
func (m *Module) lhsObject(pkg *Package, lhs ast.Expr) types.Object {
	switch l := lhs.(type) {
	case *ast.Ident:
		if obj := pkg.Info.Defs[l]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[l]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[l]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[l.Sel]
	}
	return nil
}

// funcValueKey resolves an expression used as a function value to a key:
// a literal, a declared function, or a method value.
func (m *Module) funcValueKey(pkg *Package, e ast.Expr) (FuncKey, bool) {
	switch v := e.(type) {
	case *ast.FuncLit:
		return keyForLit(pkg, v), true
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[v].(*types.Func); ok {
			return KeyForFunc(fn), true
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[v.Sel].(*types.Func); ok {
			return KeyForFunc(fn), true
		}
	}
	return "", false
}

// collectCalls fills node.Calls: call expressions (static, CHA-expanded
// interface, function-value) plus bare references to module functions —
// a method value or callback may be invoked later, so it is a may-call edge.
// Edges land on the node even when the callee's body lives in a package
// outside the module; those keys simply have no FuncNode or Summary.
func (m *Module) collectCalls(node *FuncNode) {
	pkg := node.Pkg
	edges := map[FuncKey]bool{}
	addKey := func(k FuncKey) { edges[k] = true }

	// Mark the Fun position of every call so bare-reference detection below
	// doesn't double-count it.
	inCallFun := map[ast.Node]bool{}
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != node.Lit {
			// Nested literal: it has its own node; referencing it here is
			// a may-call edge (it runs on some later invocation).
			addKey(keyForLit(pkg, lit))
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := Unparen(call.Fun)
		inCallFun[fun] = true
		for _, k := range m.Targets(pkg, call) {
			addKey(k)
		}
		return true
	})

	// Bare references: idents and selectors resolving to declared functions,
	// outside call-fun position.
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != node.Lit {
			return false
		}
		if inCallFun[n] {
			return true
		}
		switch v := n.(type) {
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[v].(*types.Func); ok {
				addKey(KeyForFunc(fn))
			}
		case *ast.SelectorExpr:
			if inCallFun[v] {
				return true
			}
			if fn, ok := pkg.Info.Uses[v.Sel].(*types.Func); ok {
				addKey(KeyForFunc(fn))
				return false
			}
		}
		return true
	})

	node.Calls = make([]FuncKey, 0, len(edges))
	for k := range edges {
		node.Calls = append(node.Calls, k)
	}
	sort.Slice(node.Calls, func(i, j int) bool { return node.Calls[i] < node.Calls[j] })
}

// Targets resolves the possible callees of one call expression as seen from
// pkg: a static function or method, the CHA expansion of an interface method,
// the functions assigned to a called function-typed variable or field, or a
// directly invoked literal. Unresolvable calls (builtins, conversions,
// function values never assigned in the package) yield no targets.
func (m *Module) Targets(pkg *Package, call *ast.CallExpr) []FuncKey {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return []FuncKey{keyForLit(pkg, fun)}
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			return []FuncKey{KeyForFunc(obj)}
		case *types.Var:
			return m.funcVals[pkg][obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			switch obj := sel.Obj().(type) {
			case *types.Func:
				if types.IsInterface(sel.Recv()) {
					return m.chaTargets(sel.Recv(), obj.Name())
				}
				return []FuncKey{KeyForFunc(obj)}
			case *types.Var:
				// Function-typed field: calls through it go to whatever the
				// package assigned there.
				return m.funcVals[pkg][obj]
			}
			return nil
		}
		// Package-qualified: os.Rename, durable.ParseManifest, ...
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			return []FuncKey{KeyForFunc(obj)}
		case *types.Var:
			return m.funcVals[pkg][obj]
		}
	}
	return nil
}

// chaTargets expands an interface method call over every named type in the
// module that implements the interface.
func (m *Module) chaTargets(recv types.Type, method string) []FuncKey {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	ck := chaKey{iface: iface, method: method}
	if cached, ok := m.chaCache[ck]; ok {
		return cached
	}
	var out []FuncKey
	seen := map[FuncKey]bool{}
	for _, named := range m.namedTypes {
		var impl types.Type = named
		if !types.Implements(named, iface) {
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			impl = types.NewPointer(named)
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, method)
		if fn, ok := obj.(*types.Func); ok {
			key := KeyForFunc(fn)
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	m.chaCache[ck] = out
	return out
}

// sccs returns the strongly connected components of the call graph in
// bottom-up (callees before callers) order, Tarjan's algorithm run
// iteratively over sorted keys for determinism.
func (m *Module) sccs() [][]FuncKey {
	keys := make([]FuncKey, 0, len(m.Funcs))
	for k := range m.Funcs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	index := map[FuncKey]int{}
	low := map[FuncKey]int{}
	onStack := map[FuncKey]bool{}
	var stack []FuncKey
	var out [][]FuncKey
	next := 0

	var strong func(k FuncKey)
	strong = func(k FuncKey) {
		index[k] = next
		low[k] = next
		next++
		stack = append(stack, k)
		onStack[k] = true
		for _, callee := range m.Funcs[k].Calls {
			if _, inModule := m.Funcs[callee]; !inModule {
				continue
			}
			if _, seen := index[callee]; !seen {
				strong(callee)
				if low[callee] < low[k] {
					low[k] = low[callee]
				}
			} else if onStack[callee] && index[callee] < low[k] {
				low[k] = index[callee]
			}
		}
		if low[k] == index[k] {
			var comp []FuncKey
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == k {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strong(k)
		}
	}
	return out // Tarjan emits components callees-first already
}
