// Package antest runs analyzers over fixture packages, mimicking
// golang.org/x/tools/go/analysis/analysistest: fixture files mark expected
// findings with trailing comments of the form
//
//	x := pool.Get() // want `not released`
//
// where the backquoted (or double-quoted) text is a regexp that must match a
// diagnostic reported on that line. Lines with no want comment must produce
// no diagnostics. //lint:ignore directives are honored, so fixtures can (and
// do) exercise the suppression path as their non-flagging cases.
package antest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"neurospatial/internal/analysis"
)

// wantRx pulls every quoted regexp out of a "// want ..." comment.
var wantRx = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run applies a to the fixture package in dir and diffs its diagnostics
// against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run(a, pkg, nil)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	wants := collectWants(t, pkg)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.rx)
		}
	}
}

// RunSummaries builds a single-package module over the fixture in dir and
// diffs each function's computed interprocedural summary against
// "// want-summary" comments written above or trailing the declaration:
//
//	// want-summary acquires=1 locks=none
//	func openPinned(d *Dataset) (*Snapshot, error) { ... }
//
// Supported keys: acquires, releases-recv (0/1);
// releases-param, puts-param, retains-param (comma-separated true indices,
// or "none"); effects (io, write, fsync, dirfsync, rename, walappend, or
// "none"); locks (lock names, or "none"). Set-valued keys assert exact
// equality, so a fixture pins the whole fact sheet, not a lower bound.
func RunSummaries(t *testing.T, dir string) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	mod := analysis.BuildModule([]*analysis.Package{pkg})

	byLine := map[int]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "// want-summary "); ok {
					byLine[pkg.Fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
				}
			}
		}
	}
	if len(byLine) == 0 {
		t.Fatalf("fixture %s has no want-summary comments", dir)
	}

	checked := 0
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			line := pkg.Fset.Position(fd.Pos()).Line
			spec, ok := byLine[line]
			if !ok {
				spec, ok = byLine[line-1]
			}
			if !ok {
				continue
			}
			checked++
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				t.Errorf("%s: no object for %s", dir, fd.Name.Name)
				continue
			}
			s := mod.Summary(analysis.KeyForFunc(fn))
			if s == nil {
				t.Errorf("%s: no summary computed for %s", dir, fd.Name.Name)
				continue
			}
			checkSummary(t, fd.Name.Name, spec, s)
		}
	}
	if checked != len(byLine) {
		t.Errorf("%s: %d want-summary comments but %d matched a declaration", dir, len(byLine), checked)
	}
}

// checkSummary diffs one function's summary against a want-summary spec.
func checkSummary(t *testing.T, fname, spec string, s *analysis.Summary) {
	t.Helper()
	boolOf := func(v string) bool { return v == "1" || v == "true" }
	setOf := func(v string) map[string]bool {
		out := map[string]bool{}
		if v == "none" {
			return out
		}
		for _, p := range strings.Split(v, ",") {
			out[strings.TrimSpace(p)] = true
		}
		return out
	}
	paramSet := func(bits []bool) map[string]bool {
		out := map[string]bool{}
		for i, b := range bits {
			if b {
				out[fmt.Sprint(i)] = true
			}
		}
		return out
	}
	eqSet := func(key string, got, wantSet map[string]bool) {
		t.Helper()
		for k := range wantSet {
			if !got[k] {
				t.Errorf("%s: summary %s: missing %q (got %v)", fname, key, k, keys(got))
			}
		}
		for k := range got {
			if !wantSet[k] {
				t.Errorf("%s: summary %s: unexpected %q (want %v)", fname, key, k, keys(wantSet))
			}
		}
	}

	for _, field := range strings.Fields(spec) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			t.Errorf("%s: malformed want-summary field %q", fname, field)
			continue
		}
		switch key {
		case "acquires":
			if s.Acquires != boolOf(val) {
				t.Errorf("%s: summary acquires = %v, want %v", fname, s.Acquires, boolOf(val))
			}
		case "releases-recv":
			if s.ReleasesRecv != boolOf(val) {
				t.Errorf("%s: summary releases-recv = %v, want %v", fname, s.ReleasesRecv, boolOf(val))
			}
		case "releases-param":
			eqSet("releases-param", paramSet(s.ReleasesParam), setOf(val))
		case "puts-param":
			eqSet("puts-param", paramSet(s.PutsParam), setOf(val))
		case "retains-param":
			eqSet("retains-param", paramSet(s.RetainsParam), setOf(val))
		case "effects":
			got := map[string]bool{}
			for name, bit := range effectBits {
				if s.Effects&bit != 0 {
					got[name] = true
				}
			}
			eqSet("effects", got, setOf(val))
		case "locks":
			got := map[string]bool{}
			for l := range s.Locks {
				got[l] = true
			}
			eqSet("locks", got, setOf(val))
		default:
			t.Errorf("%s: unknown want-summary key %q", fname, key)
		}
	}
}

var effectBits = map[string]analysis.Effect{
	"io":        analysis.EffIO,
	"write":     analysis.EffWrite,
	"fsync":     analysis.EffFsync,
	"dirfsync":  analysis.EffDirFsync,
	"rename":    analysis.EffRename,
	"walappend": analysis.EffWALAppend,
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

func collectWants(t *testing.T, pkg *analysis.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(c.Text, "// want ")
				if !found {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRx.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// loadFixture parses and type-checks dir as a single package. Fixtures
// import only the standard library, so the source importer resolves them
// regardless of working directory.
func loadFixture(dir string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("fixture/"+filepath.Base(dir), fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture: %w", err)
	}
	return &analysis.Package{
		ImportPath: tpkg.Path(),
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
