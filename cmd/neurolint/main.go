// Command neurolint runs the repo's custom static analyzers — the
// multichecker for internal/analysis. It loads every package in the module,
// builds the interprocedural call-graph module once, applies each analyzer to
// the packages inside its scope, and exits nonzero if any diagnostic survives
// //lint:ignore filtering.
//
// Run it from the module root (the source importer resolves neurospatial/...
// imports through the module tree):
//
//	go run ./cmd/neurolint            # whole repo, all analyzers
//	go run ./cmd/neurolint -json      # machine-readable findings
//	go run ./cmd/neurolint -analyzers poolcheck,lockorder
//	go run ./cmd/neurolint ./internal/engine
//
// Analyzer scopes: poolcheck covers internal/engine and internal/parallel
// (where the pooling contract lives);
// snapref covers the snapshot-lifecycle surface (engine, core, experiments,
// cmd); lockorder covers the annotated mutexes in engine and core; fsyncorder
// covers the durability layer. A property has one gate, the cheapest one that
// fails on the mutation: hot-path allocation (TestDoHotPathAllocs), emission
// order (the differential suites), the decode error contract (the fuzz targets
// in internal/durable) and cancellation (an error return, swept by
// TestCancellationSweep) are tests, so none of them has an analyzer.
//
// A full run (no -analyzers filter, no package arguments) also audits
// //lint:ignore directives: a directive that suppressed nothing, and whose
// named analyzers all ran over its package, is reported as stale and fails
// the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"neurospatial/internal/analysis"
	"neurospatial/internal/analysis/fsyncorder"
	"neurospatial/internal/analysis/lockorder"
	"neurospatial/internal/analysis/poolcheck"
	"neurospatial/internal/analysis/snapref"
)

// scoped pairs an analyzer with the import-path prefixes it applies to.
type scoped struct {
	analyzer *analysis.Analyzer
	prefixes []string
}

var suite = []scoped{
	{poolcheck.Analyzer, []string{"neurospatial/internal/engine", "neurospatial/internal/parallel"}},
	{snapref.Analyzer, []string{"neurospatial/internal/engine", "neurospatial/internal/core", "neurospatial/internal/experiments", "neurospatial/cmd"}},
	{lockorder.Analyzer, []string{"neurospatial/internal/engine", "neurospatial/internal/core"}},
	{fsyncorder.Analyzer, []string{"neurospatial/internal/engine", "neurospatial/internal/durable"}},
}

// finding is one reported diagnostic in -json output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, s := range suite {
			fmt.Printf("%-14s %s\n               scope: %s\n", s.analyzer.Name, s.analyzer.Doc, strings.Join(s.prefixes, ", "))
		}
		return
	}

	selected := map[string]bool{}
	if *names != "" {
		for _, n := range strings.Split(*names, ",") {
			selected[strings.TrimSpace(n)] = true
		}
		for n := range selected {
			if !knownAnalyzer(n) {
				fmt.Fprintf(os.Stderr, "neurolint: unknown analyzer %q\n", n)
				os.Exit(2)
			}
		}
	}

	patterns := flag.Args()
	fullRun := len(selected) == 0 && len(patterns) == 0
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "neurolint: %v\n", err)
		os.Exit(2)
	}
	mod := analysis.BuildModule(pkgs)

	var findings []finding
	for _, s := range suite {
		if len(selected) > 0 && !selected[s.analyzer.Name] {
			continue
		}
		for _, pkg := range pkgs {
			if !inScope(pkg.ImportPath, s.prefixes) {
				continue
			}
			diags, err := analysis.Run(s.analyzer, pkg, mod)
			if err != nil {
				fmt.Fprintf(os.Stderr, "neurolint: %v\n", err)
				os.Exit(2)
			}
			for _, d := range diags {
				p := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{p.Filename, p.Line, p.Column, d.Analyzer, d.Message})
			}
		}
	}
	if fullRun {
		findings = append(findings, staleIgnores(pkgs)...)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "neurolint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "neurolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// staleIgnores reports every //lint:ignore directive that suppressed nothing
// across the full suite run. A directive is only judged when each analyzer it
// names actually ran over its package (in scope), so scoped-out or unknown
// names never produce false positives.
func staleIgnores(pkgs []*analysis.Package) []finding {
	var out []finding
	for _, pkg := range pkgs {
		for _, dir := range analysis.Directives(pkg) {
			if analysis.Used(pkg, dir.Pos) {
				continue
			}
			judgeable := true
			for _, name := range dir.Names {
				if name == "*" {
					continue
				}
				s, ok := suiteEntry(name)
				if !ok || !inScope(pkg.ImportPath, s.prefixes) {
					judgeable = false
					break
				}
			}
			if !judgeable {
				continue
			}
			p := pkg.Fset.Position(dir.Pos)
			out = append(out, finding{p.Filename, p.Line, p.Column, "staleignore",
				fmt.Sprintf("stale //lint:ignore %s: the suppressed analyzer(s) report nothing here; delete the directive", strings.Join(dir.Names, ","))})
		}
	}
	return out
}

func suiteEntry(name string) (scoped, bool) {
	for _, s := range suite {
		if s.analyzer.Name == name {
			return s, true
		}
	}
	return scoped{}, false
}

func knownAnalyzer(name string) bool {
	_, ok := suiteEntry(name)
	return ok
}

func inScope(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
