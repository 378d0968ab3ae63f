package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neurospatial/internal/engine"
)

// TestSmoke runs all four workloads at tissue-tiny, once untraced (with the
// fill-in passes) and once traced, so that drift in any public entry point
// the benchmark drives fails `go test ./...` and not the benchmark weeks
// later. Times at this scale mean nothing; only presence and the checks do.
func TestSmoke(t *testing.T) {
	layers := map[string]*report{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 7, seconds: 0.2, traced: traced, tiny: true, workDir: t.TempDir()}
			r, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %s", w.name, traced, r.failed, r.attempted, r.firstErr)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := printReport(&out, cfg, r, defs); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			if traced {
				spans, err := os.ReadFile(filepath.Join(cfg.workDir, "spans-"+w.name+".jsonl"))
				if err != nil || len(spans) == 0 {
					t.Errorf("%s: no spans written: %v", w.name, err)
				}
				layers[w.name] = r
				continue
			}
			// Every workload reports every end-to-end metric, none of them 0.
			for _, d := range endToEnd {
				if v, ok := r.values[d.Name]; !ok || v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.name, d.Name, v, ok)
				}
			}
		}
	}
	// The per-layer facts that tell the workloads apart.
	if n := layers["mixed-mem"].values["dataset.compactions"]; n != 0 {
		t.Errorf("mixed-mem compacted %v times; it is the read-only workload", n)
	}
	if n := layers["churn-mem"].values["dataset.compactions"]; n < 1 {
		t.Errorf("churn-mem never compacted")
	}
	for name, r := range layers {
		reads := r.values["pagefile.reads_per_cold_pass"]
		if (name == "durable-cold") != (reads > 0) {
			t.Errorf("%s: pagefile.reads_per_cold_pass = %v", name, reads)
		}
	}
	if _, ok := layers["mixed-mem"].values["session.unattributed_share"]; !ok {
		t.Errorf("mixed-mem decomposed no request")
	}
	if layers["walk-join"].values["join.pairs"] == 0 {
		t.Errorf("walk-join found no synapse pair")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload lists in
// this package name for name, unit for unit, bound for bound.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestOracle pins the benchmark's own reference: kNN order and ties.
func TestOracle(t *testing.T) {
	tis, err := buildTissue(tissueTiny)
	if err != nil {
		t.Fatal(err)
	}
	live := newLiveSet(tis)
	for _, req := range genRequests(3, tis.volume, 40) {
		hits := live.oracle(req)
		for i := 1; i < len(hits); i++ {
			a, b := hits[i-1], hits[i]
			byID := a.ID < b.ID
			if req.Kind == engine.KNN {
				byID = a.Dist2 < b.Dist2 || (a.Dist2 == b.Dist2 && a.ID < b.ID)
			}
			if !byID {
				t.Fatalf("%s: oracle hits %d and %d out of canonical order", req, i-1, i)
			}
		}
		if req.Kind == engine.KNN && len(hits) != knnK {
			t.Fatalf("%s: oracle returned %d neighbours", req, len(hits))
		}
	}
}
