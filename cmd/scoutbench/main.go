// Command scoutbench drives experiments E3 and E4: the SCOUT reproductions
// of Figure 5 (candidate-set pruning) and Figure 6 (walk-through speedup per
// prefetching method).
//
// Usage:
//
//	go run ./cmd/scoutbench            # E4: speedup comparison
//	go run ./cmd/scoutbench -pruning   # E3: candidate pruning
//	go run ./cmd/scoutbench -index grid     # E4 served by another contender
//	go run ./cmd/scoutbench -shards 4  # E4 over the sharded engine index:
//	                                   # the same walkthroughs + prefetchers
//	                                   # (SCOUT included) served by a
//	                                   # 4-shard scatter-gather store
//	go run ./cmd/scoutbench -all       # both
//
// Contradictory flag combinations (-shards with -index ≠ sharded) are
// rejected with a one-line usage error instead of being silently ignored.
//
// The -workers flag follows the repository-wide convention (see README):
// 0 or 1 run serially, values > 1 use that many workers, negative values
// use one worker per CPU. It controls circuit construction; results are
// worker-count-invariant.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"neurospatial/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scoutbench: ")
	pruning := flag.Bool("pruning", false, "run E3 (candidate pruning)")
	sweep := flag.Bool("sweep", false, "run the walkthrough-length sweep (the 'up to 15x' series)")
	all := flag.Bool("all", false, "run every SCOUT experiment")
	workers := flag.Int("workers", -1, "circuit-construction workers (0 or 1: serial; negative: one per CPU)")
	index := flag.String("index", "", "engine contender serving the E4 walkthroughs (flat, rtree, grid, sharded)")
	shards := flag.Int("shards", 0, "serve E4 walkthroughs from the sharded engine index with this shard count (0: unsharded FLAT)")
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scoutbench: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if set["shards"] && set["index"] && *index != "sharded" {
		usageErr("-shards configures the sharded contender; it contradicts -index %q", *index)
	}
	if set["index"] && *index != "flat" && *index != "rtree" && *index != "grid" && *index != "sharded" {
		usageErr("-index must be flat, rtree, grid or sharded (got %q)", *index)
	}

	if *all || (!*pruning && !*sweep) {
		cfg := experiments.DefaultE4()
		cfg.Workers = *workers
		if *index != "" {
			cfg.Index = *index
		}
		if *shards > 0 {
			cfg.Index = "sharded"
			cfg.Shards = *shards
		}
		rows, err := experiments.RunE4(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E4Table(rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *pruning {
		cfg := experiments.DefaultE3()
		cfg.Workers = *workers
		rows, err := experiments.RunE3(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.E3Table(rows).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *all || *sweep {
		cfg := experiments.DefaultE4()
		cfg.Workers = *workers
		if *index != "" {
			cfg.Index = *index
		}
		if *shards > 0 {
			cfg.Index = "sharded"
			cfg.Shards = *shards
		}
		tb, err := experiments.E4LengthSweep(cfg, []float64{400, 900, 2500, 6000})
		if err != nil {
			log.Fatal(err)
		}
		if err := tb.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
