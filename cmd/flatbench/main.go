// Command flatbench drives experiments E1, E2 and E6: the FLAT range-query
// reproductions of Figures 2+3, Figure 4 and the §1 scaling narrative. Every
// contender executes through the unified engine layer (internal/engine).
//
// Usage:
//
//	go run ./cmd/flatbench            # E1: density sweep
//	go run ./cmd/flatbench -crawl     # E2: FLAT's reads vs result size
//	go run ./cmd/flatbench -scale     # E6: constant-density scaling
//	go run ./cmd/flatbench -all       # all three
//
//	go run ./cmd/flatbench -kind knn -k 8       # one-off Session demo: a handful
//	go run ./cmd/flatbench -kind within -radius 20  # of requests of that kind,
//	                                  # planner-routed, with per-request stats
//	go run ./cmd/flatbench -kind range -limit 16    # paging demo: walk the kind's
//	                                  # result in cursor pages of 16
//	go run ./cmd/flatbench -kind range -limit 16 -cursor nsc1:...
//	                                  # resume the walk from a printed cursor
//
// Contradictory flag combinations (-k without -kind knn, -radius with a
// kind that has no radius, -limit without -kind, -cursor without -limit) are
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
	"neurospatial/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flatbench: ")
	crawl := flag.Bool("crawl", false, "run E2 (FLAT's seed and page reads vs result size)")
	scale := flag.Bool("scale", false, "run E6 (scaling)")
	all := flag.Bool("all", false, "run every FLAT experiment")
	workers := flag.Int("workers", -1, "circuit-construction workers (0 or 1: serial; negative: one per CPU)")
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
	if set["limit"] && *kind == "" {
		usageErr("-limit pages the -kind demo; pass -kind too")
	}
	if set["cursor"] && !set["limit"] {
		usageErr("-cursor resumes a -limit page walk; pass -kind and -limit too")
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

	if *all || (!*crawl && !*scale) {
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
}
