// Package errcontract enforces the decode-path error contract: an exported
// Decode*/Parse* function that returns an error must classify every failure
// as *FormatError (structurally invalid input) or *CorruptError (checksum
// mismatch), directly or through %w-wraps and helpers — never a bare
// fmt.Errorf/errors.New, and never a panic. Callers branch on these types
// to decide between refusing a file and truncating to the last valid
// prefix, so an opaque error silently disables recovery handling.
//
// Classification is interprocedural: a return of a helper's result uses the
// helper's summary, and `return err` traces the union of everything
// assigned into err. Panics count when reachable from the decode function
// through module callees without a recover guard.
package errcontract

import (
	"go/ast"
	"strings"

	"neurospatial/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errcontract",
	Doc: "exported Decode*/Parse* functions must fail with *FormatError/*CorruptError " +
		"(or %w-wraps of them), never opaque errors or panics",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !inScope(fn) {
				continue
			}
			checkDecoder(pass, fn)
		}
	}
	return nil
}

// inScope selects exported decode entry points with an error result.
func inScope(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if !ast.IsExported(name) {
		return false
	}
	if !strings.HasPrefix(name, "Decode") && !strings.HasPrefix(name, "Parse") {
		return false
	}
	results := fn.Type.Results
	if results == nil || len(results.List) == 0 {
		return false
	}
	last := results.List[len(results.List)-1]
	id, ok := last.Type.(*ast.Ident)
	return ok && id.Name == "error"
}

func checkDecoder(pass *analysis.Pass, fn *ast.FuncDecl) {
	mod, pkg := pass.Module, pass.Package
	mod.ClassifyReturns(pkg, fn.Body, func(ret *ast.ReturnStmt, format, corrupt, opaque bool) {
		if !opaque {
			return
		}
		pass.Reportf(ret.Pos(),
			"%s returns an error outside the decode contract: use *FormatError or *CorruptError "+
				"(or wrap one with %%w) so callers can classify the failure", fn.Name.Name)
	})

	// Panics: direct panic statements, and calls into module functions whose
	// summaries panic without a recover guard. A recover in this function
	// neutralizes both.
	if hasRecover(fn.Body) {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			pass.Reportf(call.Pos(),
				"%s panics on bad input: decode paths must return *FormatError/*CorruptError instead",
				fn.Name.Name)
			return true
		}
		if merged := mod.MergedCallSummary(pkg, call); merged != nil && merged.Panics {
			pass.Reportf(call.Pos(),
				"%s calls %s, which can panic: decode paths must fail with *FormatError/*CorruptError",
				fn.Name.Name, analysis.CalleeName(call))
		}
		return true
	})
}

// hasRecover reports a recover() call inside any deferred function in body.
func hasRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				if id, ok := analysis.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "recover" {
					found = true
				}
			}
			return !found
		})
		return !found
	})
	return found
}
