// Package detorder guards the engine's determinism contract: hit emission
// and stats aggregation must be byte-identical across runs and worker
// counts, so no function that can reach an emission or aggregation call may
// range over a map — Go randomizes map iteration order per run.
//
// Emission is detected two ways: calls to the known sink (Aggregate) and
// dynamic calls through function values whose signature is a visitor shape —
// func(Hit), func(int32), func(int, int32), or func(int, Hit) — since those
// are the callbacks hits flow through.
// Reachability is the transitive closure over the package-local static call
// graph; a map range anywhere in a reaching function is reported.
package detorder

import (
	"go/ast"
	"go/types"

	"neurospatial/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc:  "no map iteration in any function that can reach hit emission or stats aggregation (order must be deterministic)",
	Run:  run,
}

// sinkNames are the package-local functions stats funnel through (hits are
// caught at the visitor call itself: the eager executor emits inline).
var sinkNames = map[string]bool{
	"Aggregate": true,
}

func run(pass *analysis.Pass) error {
	// Map every package-level function/method to its declaration.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				decls[obj] = fn
			}
		}
	}

	// Seed: functions that emit directly. Edges: static same-package calls.
	reaches := map[*types.Func]bool{}
	edges := map[*types.Func][]*types.Func{}
	for obj, fn := range decls {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(pass, call); callee != nil {
				if sinkNames[callee.Name()] || decls[callee] != nil {
					edges[obj] = append(edges[obj], callee)
				}
				if sinkNames[callee.Name()] {
					reaches[obj] = true
				}
				return true
			}
			if isVisitorCall(pass, call) {
				reaches[obj] = true
			}
			return true
		})
	}

	// Fixpoint: a caller of a reaching function reaches.
	for changed := true; changed; {
		changed = false
		for obj := range decls {
			if reaches[obj] {
				continue
			}
			for _, callee := range edges[obj] {
				if reaches[callee] {
					reaches[obj] = true
					changed = true
					break
				}
			}
		}
	}

	for obj, fn := range decls {
		if !reaches[obj] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[rng.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(rng.Pos(),
						"range over map in %s, which can reach hit emission/stats aggregation; "+
							"map order is randomized — iterate a sorted or slice-backed structure instead",
						obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// staticCallee resolves a call to a declared function or method, if the
// callee is a plain identifier or selector (not a function value).
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// isVisitorCall reports whether call invokes a function *value* (parameter,
// field, variable) whose signature is one of the hit-visitor shapes.
func isVisitorCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if staticCallee(pass, call) != nil {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Variadic() || sig.Results().Len() > 0 {
		return false
	}
	p := sig.Params()
	switch p.Len() {
	case 1:
		return isHit(p.At(0).Type()) || isInt32(p.At(0).Type())
	case 2:
		return isInt(p.At(0).Type()) && (isHit(p.At(1).Type()) || isInt32(p.At(1).Type()))
	}
	return false
}

func isHit(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct && named.Obj().Name() == "Hit"
}

func isInt32(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int32
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}
