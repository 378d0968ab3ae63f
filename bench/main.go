// Command bench is the repository's benchmark: four workloads that drive the
// public front door (engine.Session, Dataset/Tx, DurableDataset, core.Model),
// check every output against the benchmark's own oracle, and print sixteen
// end-to-end metrics — or, with -trace 1, a per-layer breakdown recorded as
// spans around the calls into each package. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	scale scale // when it is the named workload
	fill  scale // when it is a fill-in pass of another workload
	run   func(e *env, sc scale, r *report) error
}

var workloads = []workload{
	{"mixed-mem", "read-only hot path that fits in memory: plan-cache hit, traversal, SoA refinement and ordering do all the work; overlay, storage I/O and WAL do none",
		tissueL, tissueXS, runMixed},
	{"churn-mem", "the same reads beside neuron-sized commits: overlay scan, plan-cache miss plus probes, commit CoW and compaction rebuilds dominate, all of which mixed-mem bypasses",
		tissueS, tissueXS, runChurn},
	{"durable-cold", "real files, larger than the program's own cache at first touch: page-file reads, WAL fsync, snapshot thaw, manifest swap and checkpoint run only here",
		tissueS, tissueXS, runDurable},
	{"walk-join", "the paper's other two stations: prefetched walkthroughs over a 5 % buffer pool and TOUCH/PBSM/S3 synapse joins; the engine front door does almost none of the work",
		// The simulated stall per step is a count of the walk set: between seeds
		// it differs by ±4 % over tissue-XS's 64 neurons and by ±2 % over 256, and
		// XS's pool of 16 pages stalls six times as long per step as S's or L's.
		tissueL, tissueS, runWalkJoin},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one workload instance runs with.
type env struct {
	seed      int64
	seconds   float64 // measuring budget of this instance
	workers   int     // DoBatch and join pool size: nproc
	setupReps int     // set-up runs this often; setup_s is the median
	workDir   string  // where durable-cold keeps its files
	tr        *tracer // non-nil on a traced run
	fill      bool    // a fill-in pass: its heap is not measured
	lane      *lane   // non-nil when the instance shares the client with others
	born      time.Time
}

func (e *env) traced() bool { return e.tr != nil }

// runConfig selects one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool   // smoke-test scale for every pass
	workDir  string // scratch directory for durable files and spans
	spans    string // where a traced run writes its spans; "" selects workDir
}

// mainShare of the measuring time goes to the named workload at its own
// scale; the rest is split between the fill-in passes of the other three.
const mainShare = 0.7

// fillHeadStart is how much faster than its share a fill-in lane is scheduled.
const fillHeadStart = 1.25

// runOne runs one workload and returns its report: every end-to-end metric on
// an untraced run, every per-layer metric on a traced one.
func runOne(cfg runConfig) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	mainScale, reps := w.scale, 3
	if cfg.tiny {
		mainScale, reps = tissueTiny, 1
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	r := newReport()
	e := &env{seed: cfg.seed, seconds: cfg.seconds, workers: runtime.NumCPU(),
		setupReps: reps, workDir: cfg.workDir, born: time.Now()}
	if cfg.traced {
		e.tr, e.setupReps = newTracer(), 1 // a traced run does not report setup_s
		if err := w.run(e, mainScale, r); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.set("failed_share", ratio(float64(r.failed), float64(r.attempted)), int(r.attempted))
		path := cfg.spans
		if path == "" {
			path = filepath.Join(cfg.workDir, "spans-"+w.name+".jsonl")
		}
		if err := e.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.note("%d spans of %d traces written to %s", len(e.tr.spans), e.tr.traces, path)
		return r, nil
	}
	// The named workload at its own scale, and the other three as fill-in
	// passes at a small one that supply the metrics its own phases do not
	// define, take turns as lanes of the one client (see sched.go).
	e.seconds = cfg.seconds * mainShare
	e.lane = &lane{weight: mainShare, run: func() error { return w.run(e, mainScale, r) }}
	lanes := []*lane{e.lane}
	var fills []*report
	var names []string
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		o, fr, fillScale := o, newReport(), o.fill
		if cfg.tiny {
			fillScale = tissueTiny
		}
		share := (1 - mainShare) / float64(len(workloads)-1)
		fe := &env{seed: cfg.seed, seconds: cfg.seconds * share, workers: e.workers, setupReps: 1,
			workDir: cfg.workDir, fill: true, born: e.born}
		// A fill-in lane runs a little ahead of its share, so that it is done
		// before the named workload measures its heap.
		fe.lane = &lane{weight: share * fillHeadStart, run: func() error { return o.run(fe, fillScale, fr) }}
		lanes = append(lanes, fe.lane)
		fills, names = append(fills, fr), append(names, o.name+"@"+fillScale.name)
	}
	if err := interleave(lanes); err != nil {
		return nil, err
	}
	for i, fr := range fills {
		r.absorb(fr, names[i])
	}
	r.set("ok_share", 1-ratio(float64(r.failed), float64(r.attempted)), int(r.attempted))
	return r, nil
}

// resultLine is the last line of standard output: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultOf(r *report, defs []metricDef) resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

// envStamp describes where the numbers were taken.
func envStamp() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("env: %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, commit)
}

// printReport writes the human-readable table, then the result line.
func printReport(w io.Writer, cfg runConfig, r *report, defs []metricDef) error {
	wl, _ := findWorkload(cfg.workload)
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Fprintf(w, "why: %s\n", wl.why)
	fmt.Fprintln(w, envStamp())
	fmt.Fprintln(w, "load: one closed-loop client; DoBatch and joins use workers = nproc; flush policy: the engine's, fsync on every commit")
	fmt.Fprintln(w, "timings are the calm decile of their rounds: the lowest tenth of a latency's, the highest of a rate's (README)")
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-40s %16s %-6s not exercised by this workload\n", d.Name, "0", d.Unit)
			continue
		}
		line := fmt.Sprintf("  %-40s %16.6g %-6s", d.Name, v, d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if src, ok := r.source[d.Name]; ok {
			line += " from " + src
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "checked %d operations, %d failed", r.attempted, r.failed)
	if r.firstErr != "" {
		fmt.Fprintf(w, "; first: %s", r.firstErr)
	}
	fmt.Fprintln(w)
	line, err := json.Marshal(resultOf(r, defs))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: mixed-mem, churn-mem, durable-cold or walk-join")
		seed    = flag.Int64("seed", 1, "drives the tissue and every request and mutation stream")
		seconds = flag.Float64("seconds", 25, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 repeats the run with spans recorded and prints the per-layer metrics")
		all     = flag.Bool("all", false, "run the four workloads in turn")
		aa      = flag.Bool("aa", false, "run two full sets of runs of this binary and compare them against the bounds")
		runs    = flag.Int("runs", 5, "-aa: runs per workload and set, each with another seed")
		spans   = flag.String("spans", "", "where a traced run writes its spans (default: under -workdir)")
		workDir = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for durable files and spans")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *all, *aa, *runs, *spans, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int, all, aa bool, runs int, spans, workDir string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if aa {
		return runAA(seed, seconds, runs, workDir)
	}
	var names []string
	switch {
	case all:
		for _, w := range workloads {
			names = append(names, w.name)
		}
	case name != "":
		names = []string{name}
	default:
		return fmt.Errorf("name a -workload, or pass -all or -aa")
	}
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	for _, n := range names {
		cfg := runConfig{workload: n, seed: seed, seconds: seconds, traced: trace != 0, workDir: workDir, spans: spans}
		r, err := runOne(cfg)
		if err != nil {
			return err
		}
		if err := printReport(os.Stdout, cfg, r, defs); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}
