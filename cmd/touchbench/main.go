// Command touchbench drives experiment E5: the TOUCH reproduction of
// Figure 7 and the §4.1 performance claims — the synapse-placement join run
// with every method, reporting time, memory footprint and pairwise
// comparisons.
//
// Usage:
//
//	go run ./cmd/touchbench                 # E5 at the default scale
//	go run ./cmd/touchbench -neurons 256    # bigger model
//	go run ./cmd/touchbench -skip-nl        # skip the quadratic baseline
//	go run ./cmd/touchbench -eps-sweep      # TOUCH vs PBSM across ε
//	go run ./cmd/touchbench -workers -1     # add parallel PBSM/S3/TOUCH rows
//
// A malformed flag value (-neurons <= 0) is rejected with a one-line usage
// error instead of being silently ignored.
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
	log.SetPrefix("touchbench: ")
	neurons := flag.Int("neurons", 0, "override the model size")
	skipNL := flag.Bool("skip-nl", false, "skip the quadratic NestedLoop baseline")
	epsSweep := flag.Bool("eps-sweep", false, "also run the ε sensitivity sweep")
	workers := flag.Int("workers", 0, "also run parallel PBSM/S3/TOUCH with this many workers (negative: one per CPU)")
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "touchbench: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if set["neurons"] && *neurons <= 0 {
		usageErr("-neurons needs a positive model size (got %d)", *neurons)
	}

	cfg := experiments.DefaultE5()
	if *neurons > 0 {
		cfg.Neurons = *neurons
	}
	if *skipNL {
		cfg.IncludeNestedLoop = false
	}
	cfg.Workers = *workers
	rows, err := experiments.RunE5(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := experiments.E5Table(rows).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *epsSweep {
		fmt.Println()
		tb, err := experiments.E5EpsSweep(cfg, []float64{0.5, 1, 2, 4})
		if err != nil {
			log.Fatal(err)
		}
		if err := tb.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
