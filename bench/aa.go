package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// child runs this binary once, as the driver would, and parses its result line.
func child(exe, workload string, seed int64, seconds float64, trace int, workDir string) (resultLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-workdir", workDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// runAA makes two full sets of runs of this one binary — per workload, runs
// untraced runs with seeds seed, seed+1, … and one traced run — and compares
// them: both medians of every end-to-end metric must agree within the
// metric's bound, every exact-count metric of one seed must repeat bit for
// bit, and nothing may fail. It is how the bounds in BENCHMARK.json were set.
func runAA(seed int64, seconds float64, runs int, workDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type set struct {
		untraced map[string][]resultLine // per workload, by seed offset
		traced   map[string]resultLine
	}
	var sets [2]set
	for s := range sets {
		sets[s] = set{untraced: map[string][]resultLine{}, traced: map[string]resultLine{}}
		for _, w := range workloads {
			for i := 0; i < runs; i++ {
				res, err := child(exe, w.name, seed+int64(i), seconds, 0, workDir)
				if err != nil {
					return err
				}
				sets[s].untraced[w.name] = append(sets[s].untraced[w.name], res)
			}
			res, err := child(exe, w.name, seed, seconds, 1, workDir)
			if err != nil {
				return err
			}
			sets[s].traced[w.name] = res
			fmt.Printf("set %c: %s done\n", 'A'+s, w.name)
		}
	}

	bad := 0
	flag := func(ok bool) string {
		if ok {
			return ""
		}
		bad++
		return "  <-- EXCEEDS"
	}
	for _, w := range workloads {
		fmt.Printf("\n%s (%d runs per set)\n  %-20s %14s %14s %9s %7s\n", w.name, runs, "metric", "median A", "median B", "rel diff", "bound")
		for _, d := range endToEnd {
			var a, b []float64
			for i := 0; i < runs; i++ {
				a = append(a, sets[0].untraced[w.name][i].Metrics[d.Name].Value)
				b = append(b, sets[1].untraced[w.name][i].Metrics[d.Name].Value)
			}
			ma, mb := median(a), median(b)
			rel := math.Abs(ratio(mb-ma, ma))
			fmt.Printf("  %-20s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", d.Name, ma, mb, 100*rel, 100*d.Bound, flag(rel <= d.Bound))
		}
		for i := 0; i < runs; i++ {
			a, b := sets[0].untraced[w.name][i], sets[1].untraced[w.name][i]
			if a.Failed+b.Failed > 0 {
				fmt.Printf("  seed %d: %d and %d operations failed%s\n", seed+int64(i), a.Failed, b.Failed, flag(false))
			}
			for _, d := range endToEnd {
				if isExactCount(d.Name) && a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
					fmt.Printf("  seed %d: exact count %s read %v then %v%s\n", seed+int64(i), d.Name,
						a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, flag(false))
				}
			}
		}
		a, b := sets[0].traced[w.name], sets[1].traced[w.name]
		if a.Failed+b.Failed > 0 {
			fmt.Printf("  traced: %d and %d operations failed%s\n", a.Failed, b.Failed, flag(false))
		}
		exact := 0
		for _, d := range perLayer {
			if !isExactCount(d.Name) {
				continue
			}
			exact++
			if a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
				fmt.Printf("  traced: exact count %s read %v then %v%s\n", d.Name,
					a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, flag(false))
			}
		}
		fmt.Printf("  %d exact-count per-layer metrics compared\n", exact)
	}
	if bad > 0 {
		return fmt.Errorf("-aa: %d comparisons out of bounds", bad)
	}
	fmt.Println("\n-aa: both sets agree within every bound; exact counts repeat")
	return nil
}
