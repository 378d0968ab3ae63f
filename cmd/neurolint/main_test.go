package main

import (
	"testing"

	"neurospatial/internal/analysis"
)

// TestSuiteCleanOnRepo pins the whole module at zero findings. It is the
// regression test for the violations the suite caught when it was first run
// — the durability findings the interprocedural analyzers surfaced (see
// internal/durable) — and the gate that keeps new ones out: the same check CI's lint-static job runs via
// `go run ./cmd/neurolint`. It also pins the stale-ignore audit at zero, so
// every surviving //lint:ignore in the tree still suppresses something.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	pkgs, err := analysis.Load("neurospatial/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	mod := analysis.BuildModule(pkgs)
	for _, s := range suite {
		for _, pkg := range pkgs {
			if !inScope(pkg.ImportPath, s.prefixes) {
				continue
			}
			diags, err := analysis.Run(s.analyzer, pkg, mod)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.analyzer.Name, pkg.ImportPath, err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			}
		}
	}
	for _, f := range staleIgnores(pkgs) {
		t.Errorf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
}
