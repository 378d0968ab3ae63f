// Command flatbench drives experiments E1, E2 and E6: the FLAT range-query
// reproductions of Figures 2+3, Figure 4 and the §1 scaling narrative. It
// prints the tables recorded in EXPERIMENTS.md. Every contender executes
// through the unified engine layer (internal/engine).
//
// Usage:
//
//	go run ./cmd/flatbench            # E1: density sweep
//	go run ./cmd/flatbench -crawl     # E2: crawl cost vs result size
//	go run ./cmd/flatbench -scale     # E6: constant-density scaling
//	go run ./cmd/flatbench -batch     # E7: batched concurrent-query worker sweep
//	go run ./cmd/flatbench -shards -1 # E8: sharded scatter-gather sweep + routing
//	go run ./cmd/flatbench -shards 4  # E8 pinned to one shard count
//	go run ./cmd/flatbench -shards 4 -index rtree  # E8 with R-tree sub-indexes
//	go run ./cmd/flatbench -mixed     # E9: mixed range/kNN/point/within workload
//	                                  # through the Session front door + routing
//	go run ./cmd/flatbench -churn     # E10: interleaved updates and queries
//	                                  # through the mutable Dataset (snapshot
//	                                  # isolation + worker invariance enforced)
//	go run ./cmd/flatbench -stream    # E11: streaming first page vs full drain
//	                                  # (early-stop + O(Limit) allocation proof)
//	go run ./cmd/flatbench -alloc     # E12: hot-path allocs/op per contender ×
//	                                  # kind × churn + plan-cache hit rate
//	                                  # (zero-alloc + ≥10× reduction enforced)
//	go run ./cmd/flatbench -reopen    # E13: cold OpenDataset vs full re-index
//	                                  # + first-query latency through the cold
//	                                  # disk store (zero reads through open)
//	go run ./cmd/flatbench -all       # everything
//
//	go run ./cmd/flatbench -kind knn -k 8       # one-off Session demo: a handful
//	go run ./cmd/flatbench -kind within -radius 20  # of requests of that kind,
//	                                  # planner-routed, with per-request stats
//	go run ./cmd/flatbench -kind range -limit 16    # paging demo: walk the kind's
//	                                  # result in cursor pages of 16
//	go run ./cmd/flatbench -kind range -limit 16 -cursor nsc1:...
//	                                  # resume the walk from a printed cursor
//
//	go run ./cmd/flatbench -json BENCH_engine.json [-quick]
//	                                  # machine-readable E1/E4/E7/E8/E9/E10/
//	                                  # E11/E12/E13 headline numbers (the CI
//	                                  # artifact, schema 7)
//
// Contradictory flag combinations (-k without -kind knn, -radius with a
// kind that has no radius, -limit without -kind, -cursor without -limit,
// -index without -shards, -quick without -json, a -json path that starts with
// "-" — a swallowed flag) are rejected with a one-line usage error instead of
// being silently ignored.
//
// The -workers flag follows the repository-wide convention (see README):
// 0 or 1 run serially, values > 1 use that many workers, negative values
// use one worker per CPU. It controls circuit construction; results are
// worker-count-invariant.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"neurospatial/internal/experiments"
	"neurospatial/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flatbench: ")
	crawl := flag.Bool("crawl", false, "run E2 (crawl cost)")
	scale := flag.Bool("scale", false, "run E6 (scaling)")
	batch := flag.Bool("batch", false, "run E7 (batched concurrent queries)")
	shards := flag.Int("shards", 0, "run E8 (sharded scatter-gather): > 0 pins the shard count, -1 runs the default sweep")
	index := flag.String("index", "", "with -shards: the E8 per-shard contender (flat, rtree, grid)")
	mixed := flag.Bool("mixed", false, "run E9 (mixed range/kNN/point/within workload through the Session front door)")
	churn := flag.Bool("churn", false, "run E10 (interleaved updates and queries through the mutable Dataset)")
	stream := flag.Bool("stream", false, "run E11 (streaming first page vs full drain)")
	alloc := flag.Bool("alloc", false, "run E12 (hot-path allocations per op + plan-cache hit rate)")
	reopen := flag.Bool("reopen", false, "run E13 (cold OpenDataset vs full re-index through the durable store)")
	all := flag.Bool("all", false, "run every FLAT experiment")
	workers := flag.Int("workers", -1, "circuit-construction workers (0 or 1: serial; negative: one per CPU)")
	jsonOut := flag.String("json", "", "write E1/E4/E7/E8/E9/E10/E11/E12 headline numbers as JSON to this path and exit")
	quick := flag.Bool("quick", false, "with -json: use the reduced CI-scale configurations")
	kind := flag.String("kind", "", "run a one-off Session demo of this query kind (range, knn, point, within) and exit")
	k := flag.Int("k", 8, "with -kind knn: the neighbor count")
	radius := flag.Float64("radius", 20, "with -kind range/within: the query radius")
	limit := flag.Int("limit", 0, "with -kind: page the demo's result in cursor pages of this size")
	cursor := flag.String("cursor", "", "with -kind and -limit: resume the page walk from this cursor token")
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "flatbench: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if set["k"] && *kind != "knn" {
		usageErr("-k applies only to -kind knn (got -kind %q)", *kind)
	}
	if set["radius"] && *kind != "range" && *kind != "within" {
		usageErr("-radius applies only to -kind range or within (got -kind %q)", *kind)
	}
	if set["quick"] && *jsonOut == "" {
		usageErr("-quick applies only with -json")
	}
	if strings.HasPrefix(*jsonOut, "-") {
		usageErr("-json needs an output path before other flags (got %q); write ./%s for a file of that name", *jsonOut, *jsonOut)
	}
	if set["index"] && *shards == 0 {
		usageErr("-index selects the E8 per-shard contender; pass -shards too")
	}
	if set["index"] && *index != "flat" && *index != "rtree" && *index != "grid" {
		usageErr("-index must be flat, rtree or grid (got %q)", *index)
	}
	if set["limit"] && *kind == "" {
		usageErr("-limit pages the -kind demo; pass -kind too")
	}
	if set["cursor"] && !set["limit"] {
		usageErr("-cursor resumes a -limit page walk; pass -kind and -limit too")
	}

	if *jsonOut != "" {
		if err := writeBenchJSON(*jsonOut, *quick, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *kind != "" {
		var tb *stats.Table
		var err error
		if *limit > 0 {
			tb, err = experiments.RunPagingDemo(*kind, *k, *radius, *limit, *cursor, *workers)
		} else {
			tb, err = experiments.RunSessionDemo(*kind, *k, *radius, *workers)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := tb.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	runDensity := *all || (!*crawl && !*scale && !*batch && !*mixed && !*churn && !*stream && !*alloc && !*reopen && *shards == 0)
	if runDensity {
		cfg := experiments.DefaultE1()
		cfg.Workers = *workers
		rows, err := experiments.RunE1(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E1Table(rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *crawl {
		cfg := experiments.DefaultE2()
		cfg.Workers = *workers
		rows, err := experiments.RunE2(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E2Table(rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *scale {
		cfg := experiments.DefaultE6()
		cfg.Workers = *workers
		rows, err := experiments.RunE6(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E6Table(rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *batch {
		cfg := experiments.DefaultE7()
		cfg.Workers = *workers
		rows, err := experiments.RunE7(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E7Table(rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *shards != 0 {
		cfg := experiments.DefaultE8()
		cfg.Workers = *workers
		if *shards > 0 {
			cfg.ShardCounts = []int{*shards}
		}
		if *index != "" {
			cfg.Index = *index
		}
		res, err := experiments.RunE8(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E8Table(res.Rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := experiments.E8RoutingTable(res).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *mixed {
		cfg := experiments.DefaultE9()
		cfg.Workers = *workers
		res, err := experiments.RunE9(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E9Table(res.Rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := experiments.E9KindTable(res).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := experiments.E9RoutingTable(res).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *churn {
		cfg := experiments.DefaultE10()
		cfg.Workers = *workers
		res, err := experiments.RunE10(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E10Table(res.Rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := experiments.E10RoutingTable(res).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *stream {
		rows, err := experiments.RunE11(experiments.DefaultE11())
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E11Table(rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *alloc {
		res, err := experiments.RunE12(experiments.DefaultE12())
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E12Table(res).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := experiments.E12Summary(res).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *reopen {
		res, err := experiments.RunE13(experiments.DefaultE13())
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E13Table(res).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func writeBenchJSON(path string, quick bool, workers int) error {
	cfgs := experiments.DefaultBenchConfigs()
	if quick {
		cfgs = experiments.QuickBenchConfigs()
	}
	cfgs.E1.Workers = workers
	cfgs.E4.Workers = workers
	cfgs.E7.Workers = workers
	cfgs.E8.Workers = workers
	cfgs.E9.Workers = workers
	// Buffer the report and touch path only once every experiment has
	// passed: a failing run must not truncate the previous report.
	var buf bytes.Buffer
	if err := experiments.RunBenchJSON(&buf, cfgs); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
