// Command datagen generates synthetic tissue circuits and serializes their
// element arrays to disk — the repository's stand-in for the Blue Brain
// Project's model-building pipeline (README "Package map"). The written files
// are consumed by anything that wants a reproducible dataset without
// regenerating morphologies.
//
// Usage:
//
//	go run ./cmd/datagen -out circuit.nsc [-neurons N] [-edge E] [-seed S] [-layered]
//	go run ./cmd/datagen -out circuit.nsc -churn 3   # also simulate 3 mutation
//	                                                 # batches on the generated
//	                                                 # dataset and report the
//	                                                 # maintenance cost
//	go run ./cmd/datagen -out circuit.ds -durable    # write a durable dataset
//	                                                 # directory instead: a
//	                                                 # checkpointed, crash-
//	                                                 # recoverable store that
//	                                                 # engine.OpenDataset serves
//	                                                 # without re-indexing
//	go run ./cmd/datagen -info circuit.nsc           # also accepts a durable
//	                                                 # dataset directory
//
// -info and -out are mutually exclusive, and -churn applies only with -out;
// with -durable, -churn commits its mutation batches through the write-ahead
// log before the final checkpoint, so the written dataset is the churned
// epoch, not the pristine one. Contradictory combinations are rejected with
// a one-line usage error instead of one flag silently winning.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"neurospatial/internal/circuit"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
	"neurospatial/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")
	out := flag.String("out", "", "output path for the generated circuit")
	info := flag.String("info", "", "print a summary of an existing circuit file and exit")
	neurons := flag.Int("neurons", 128, "number of neurons")
	edge := flag.Float64("edge", 350, "cubic volume edge (µm)")
	seed := flag.Int64("seed", 1, "generator seed")
	layered := flag.Bool("layered", false, "use the cortical layer density profile")
	workers := flag.Int("workers", -1, "morphology generation workers (0 or 1: serial; negative: one per CPU)")
	churn := flag.Int("churn", 0, "with -out: simulate this many mutation batches on the generated dataset and report the maintenance cost")
	durableOut := flag.Bool("durable", false, "with -out: write a durable dataset directory (reopenable with engine.OpenDataset) instead of an elements file")
	flag.Parse()

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "datagen: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if *info != "" && *out != "" {
		usageErr("-info and -out are mutually exclusive")
	}
	if *churn < 0 {
		usageErr("-churn needs a non-negative batch count (got %d)", *churn)
	}
	if *churn > 0 && *out == "" {
		usageErr("-churn applies only with -out (there is no dataset to mutate)")
	}
	if *durableOut && *out == "" {
		usageErr("-durable applies only with -out (it selects the output format)")
	}

	switch {
	case *info != "":
		if err := printInfo(*info); err != nil {
			log.Fatal(err)
		}
	case *out != "":
		gen := generate
		if *durableOut {
			gen = generateDurable
		}
		if err := gen(*out, *neurons, *edge, *seed, *layered, *workers, *churn); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func buildCircuit(neurons int, edge float64, seed int64, layered bool, workers int) (*circuit.Circuit, error) {
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(edge, edge, edge))
	p.Seed = seed
	p.Workers = workers
	if layered {
		p.Layers = circuit.CorticalLayers()
	}
	return circuit.Build(p)
}

func generate(path string, neurons int, edge float64, seed int64, layered bool, workers, churn int) error {
	c, err := buildCircuit(neurons, edge, seed, layered, workers)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := circuit.WriteElements(f, c.Elements); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d neurons, %s elements, %s on disk (density %.4f elems/µm³)\n",
		path, neurons, stats.Count(int64(len(c.Elements))), stats.Bytes(st.Size()), c.Density())
	if churn > 0 {
		return churnReport(c, seed, churn)
	}
	return nil
}

// churnReport simulates batched mutations against a Dataset built over the
// generated circuit and prints the maintenance cost — what keeping this
// dataset's indexes current would cost per update batch, without a full
// rebuild. The written file is the pristine epoch-0 circuit; the churn is a
// simulation on top of it.
func churnReport(c *circuit.Circuit, seed int64, batches int) error {
	items := make([]rtree.Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	ds, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"flat"}})
	if err != nil {
		return err
	}
	if err := churnBatches(ds, c.Params.Volume, len(items), seed, batches); err != nil {
		return err
	}
	st := ds.Stats()
	tb := stats.NewTable(fmt.Sprintf("simulated churn: %d batches of 64 ops over the generated dataset", batches),
		"epoch", "live", "delta", "tombstones", "compactions", "layout shared/patched/appended")
	tb.AddRow(st.Epoch, st.Live, st.DeltaEntries, st.Tombstones, st.Compactions,
		fmt.Sprintf("%d/%d/%d", st.Cow.Shared, st.Cow.Patched, st.Cow.Appended))
	return tb.Render(os.Stdout)
}

// churnBatches commits the standard churn workload (64 half-insert
// half-delete ops per batch) against ds. When ds belongs to a durable
// dataset every commit goes through its write-ahead log.
func churnBatches(ds *engine.Dataset, vol geom.AABB, initial int, seed int64, batches int) error {
	rng := rand.New(rand.NewSource(seed))
	size := vol.Size()
	live := make([]int32, initial)
	for i := range live {
		live[i] = int32(i)
	}
	for b := 0; b < batches; b++ {
		tx := ds.Begin()
		for i := 0; i < 64; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				p := geom.V(
					vol.Min.X+rng.Float64()*size.X,
					vol.Min.Y+rng.Float64()*size.Y,
					vol.Min.Z+rng.Float64()*size.Z,
				)
				live = append(live, tx.Insert(geom.BoxAround(p, 1+rng.Float64()*4)))
			} else {
				j := rng.Intn(len(live))
				tx.Delete(live[j])
				live = append(live[:j], live[j+1:]...)
			}
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// generateDurable writes the generated circuit as a durable dataset
// directory: every contender built, checkpointed and fsynced, so
// engine.OpenDataset serves it without re-indexing. A churn count first
// commits that many batches through the WAL, so the written state is the
// churned epoch and the final checkpoint folds the delta into base pages.
func generateDurable(dir string, neurons int, edge float64, seed int64, layered bool, workers, churn int) error {
	c, err := buildCircuit(neurons, edge, seed, layered, workers)
	if err != nil {
		return err
	}
	items := make([]rtree.Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	dd, err := engine.CreateDataset(dir, items, engine.DatasetOptions{
		Contenders: []string{"flat", "rtree", "grid", "sharded"},
		Workers:    workers,
	})
	if err != nil {
		return err
	}
	if churn > 0 {
		if err := churnBatches(dd.Dataset, c.Params.Volume, len(items), seed, churn); err != nil {
			dd.Close()
			return err
		}
		if err := dd.Checkpoint(); err != nil {
			dd.Close()
			return err
		}
	}
	var bytes int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		dd.Close()
		return err
	}
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil {
			bytes += info.Size()
		}
	}
	man := dd.Manifest()
	fmt.Printf("wrote durable dataset %s: %d neurons, %s elements, epoch %d, %s on disk (%s, %s, %s)\n",
		dir, neurons, stats.Count(int64(dd.Current().NumItems())), man.Epoch, stats.Bytes(bytes),
		man.Snapshot, man.Pages, man.WAL)
	return dd.Close()
}

func printInfo(path string) error {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		return printDatasetInfo(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	elems, err := circuit.ReadElements(f)
	if err != nil {
		return err
	}
	bounds := geom.EmptyAABB()
	neurons := make(map[int32]struct{})
	somas := 0
	for i := range elems {
		bounds = bounds.Union(elems[i].Bounds())
		neurons[elems[i].Neuron] = struct{}{}
		if elems[i].Branch < 0 {
			somas++
		}
	}
	fmt.Printf("%s: %s elements, %d neurons (%d somas), bounds %v\n",
		path, stats.Count(int64(len(elems))), len(neurons), somas, bounds)
	return nil
}

// printDatasetInfo summarizes a durable dataset directory: what OpenDataset
// recovered and what it cost on disk. Opening reads headers and the snapshot
// only — the item pages stay on disk, so -info on a huge dataset is cheap.
func printDatasetInfo(dir string) error {
	dd, err := engine.OpenDataset(dir)
	if err != nil {
		return err
	}
	defer dd.Close()
	var bytes int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil {
			bytes += info.Size()
		}
	}
	man := dd.Manifest()
	st := dd.Stats()
	fmt.Printf("%s: durable dataset, %s items live, epoch %d, %s on disk (%s, %s, %s), delta %d, tombstones %d\n",
		dir, stats.Count(int64(st.Live)), man.Epoch, stats.Bytes(bytes),
		man.Snapshot, man.Pages, man.WAL, st.DeltaEntries, st.Tombstones)
	return nil
}
