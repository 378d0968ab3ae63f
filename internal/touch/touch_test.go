package touch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/geom"
	"neurospatial/internal/join"
	"neurospatial/internal/parallel"
	"neurospatial/internal/rtree"
)

func randObjects(rng *rand.Rand, n int, extent float64) []join.Object {
	out := make([]join.Object, n)
	for i := range out {
		a := geom.V(rng.Float64()*extent, rng.Float64()*extent, rng.Float64()*extent)
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).
			Normalize().Scale(rng.Float64()*extent/20 + 0.1)
		out[i] = join.Make(int32(i), geom.Seg(a, a.Add(dir), rng.Float64()*0.3+0.05))
	}
	return out
}

func oracle(a, b []join.Object, eps float64) map[join.Pair]bool {
	out := make(map[join.Pair]bool)
	for i := range a {
		for j := range b {
			if a[i].Seg.WithinDist(b[j].Seg, eps) {
				out[join.Pair{A: a[i].ID, B: b[j].ID}] = true
			}
		}
	}
	return out
}

func checkAgainstOracle(t *testing.T, alg join.Algorithm, a, b []join.Object, eps float64) join.Stats {
	t.Helper()
	want := oracle(a, b, eps)
	got := make(map[join.Pair]int)
	st := alg.Join(a, b, eps, func(p join.Pair) { got[p]++ })
	for p, n := range got {
		if n != 1 {
			t.Fatalf("pair %v emitted %d times", p, n)
		}
		if !want[p] {
			t.Fatalf("spurious pair %v", p)
		}
	}
	for p := range want {
		if got[p] == 0 {
			t.Fatalf("missed pair %v", p)
		}
	}
	return st
}

func TestMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := randObjects(rng, 350, 20)
	b := randObjects(rng, 320, 20)
	for _, eps := range []float64{0, 0.2, 1, 3} {
		checkAgainstOracle(t, New(), a, b, eps)
	}
}

func TestMatchesOracleOnNeuronData(t *testing.T) {
	// The real workload: synapse candidates between two half-circuits.
	a, b := neuronHalves()
	// Cap sizes to keep the O(n²) oracle fast.
	if len(a) > 800 {
		a = a[:800]
	}
	if len(b) > 800 {
		b = b[:800]
	}
	st := checkAgainstOracle(t, New(), a, b, 1.0)
	if st.Results == 0 {
		t.Fatal("no synapse candidates found — workload degenerate")
	}
}

func TestEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := randObjects(rng, 20, 5)
	st := New().Join(nil, a, 1, func(join.Pair) { t.Fatal("emitted on empty A") })
	if st.Results != 0 {
		t.Fatal("results on empty A")
	}
	st = New().Join(a, nil, 1, func(join.Pair) { t.Fatal("emitted on empty B") })
	if st.Results != 0 {
		t.Fatal("results on empty B")
	}
}

func TestFilteringDropsFarObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := randObjects(rng, 200, 10)
	// B objects in a distant shell: all fall into empty space.
	b := randObjects(rng, 200, 10)
	for i := range b {
		b[i].Seg.A = b[i].Seg.A.Add(geom.V(500, 500, 500))
		b[i].Seg.B = b[i].Seg.B.Add(geom.V(500, 500, 500))
		b[i].Box = b[i].Seg.Bounds()
	}
	st := New().Join(a, b, 1, func(join.Pair) { t.Fatal("pair across gap") })
	if st.Comparisons != 0 {
		t.Errorf("filtering failed: %d comparisons", st.Comparisons)
	}
	// Filtered objects never reach a bucket, so probing does no node work
	// beyond the root tests.
	if st.NodePairs != 0 {
		t.Errorf("probe ran for filtered objects: %d node visits", st.NodePairs)
	}
}

func TestFewerComparisonsThanNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	a := randObjects(rng, 600, 25)
	b := randObjects(rng, 600, 25)
	eps := 0.3
	nl := join.NestedLoop{}.Join(a, b, eps, func(join.Pair) {})
	tc := New().Join(a, b, eps, func(join.Pair) {})
	if tc.Results != nl.Results {
		t.Fatalf("TOUCH results %d != NL %d", tc.Results, nl.Results)
	}
	if tc.Comparisons*10 > nl.Comparisons && nl.Comparisons > 1000 {
		t.Errorf("TOUCH comparisons not much lower: %d vs %d", tc.Comparisons, nl.Comparisons)
	}
	if tc.BoxTests >= nl.BoxTests {
		t.Errorf("TOUCH box tests not lower: %d vs %d", tc.BoxTests, nl.BoxTests)
	}
}

func TestNoReplicationMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	a := randObjects(rng, 1000, 20)
	b := randObjects(rng, 1000, 20)
	eps := 0.5
	tc := New().Join(a, b, eps, func(join.Pair) {})
	// Upper bound: tree entries (~1.5 per A object at ~52 bytes) plus one
	// 4-byte bucket slot per B object.
	bound := int64(len(a))*52*3/2 + int64(len(b))*4
	if tc.ExtraBytes > bound {
		t.Errorf("memory above no-replication bound: %d > %d", tc.ExtraBytes, bound)
	}
}

func TestMaxAssignDepthAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	a := randObjects(rng, 500, 20)
	b := randObjects(rng, 500, 20)
	eps := 0.4
	deep := New().Join(a, b, eps, func(join.Pair) {})
	shallow := (&Touch{Opts: Options{MaxAssignDepth: 1}}).Join(a, b, eps, func(join.Pair) {})
	if deep.Results != shallow.Results {
		t.Fatalf("depth cap changed results: %d vs %d", deep.Results, shallow.Results)
	}
	// Shallow assignment probes bigger subtrees: more node visits.
	if shallow.NodePairs < deep.NodePairs {
		t.Errorf("expected shallow assignment to visit more nodes: %d vs %d",
			shallow.NodePairs, deep.NodePairs)
	}
}

func TestCustomFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	a := randObjects(rng, 300, 15)
	b := randObjects(rng, 300, 15)
	for _, fanout := range []int{1, 2, 3, 4, 8, 64} {
		alg := &Touch{Opts: Options{Fanout: fanout}}
		checkAgainstOracle(t, alg, a, b, 0.4)
	}
}

func TestName(t *testing.T) {
	if New().Name() != "TOUCH" {
		t.Error("name wrong")
	}
}

func TestParallelProbeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	a := randObjects(rng, 700, 25)
	b := randObjects(rng, 700, 25)
	eps := 0.4
	serial := New()
	want := make(map[join.Pair]int)
	sst := serial.Join(a, b, eps, func(p join.Pair) { want[p]++ })
	for _, workers := range []int{2, 4, 7} {
		alg := &Touch{Opts: Options{Workers: workers}}
		got := make(map[join.Pair]int)
		pst := alg.Join(a, b, eps, func(p join.Pair) { got[p]++ })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, serial %d", workers, len(got), len(want))
		}
		for p, n := range got {
			if n != 1 || want[p] != 1 {
				t.Fatalf("workers=%d: pair %v emitted %d times", workers, p, n)
			}
		}
		// Counters are preserved across the parallel merge.
		if pst.Results != sst.Results || pst.Comparisons != sst.Comparisons {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, pst, sst)
		}
	}
}

func TestParallelDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	a := randObjects(rng, 400, 20)
	b := randObjects(rng, 400, 20)
	alg := &Touch{Opts: Options{Workers: 3}}
	var run1, run2 []join.Pair
	alg.Join(a, b, 0.4, func(p join.Pair) { run1 = append(run1, p) })
	alg.Join(a, b, 0.4, func(p join.Pair) { run2 = append(run2, p) })
	if len(run1) != len(run2) {
		t.Fatal("run lengths differ")
	}
	for i := range run1 {
		if run1[i] != run2[i] {
			t.Fatalf("emission order differs at %d", i)
		}
	}
}

// neuronHalves splits a small circuit's elements into two join operands by
// neuron parity: the synapse workload's shape at test size.
func neuronHalves() (a, b []join.Object) {
	p := circuit.DefaultParams()
	p.Neurons = 6
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(150, 150, 150))
	for _, e := range circuit.MustBuild(p).Elements {
		if o := join.Make(e.ID, e.Shape); e.Neuron%2 == 0 {
			a = append(a, o)
		} else {
			b = append(b, o)
		}
	}
	return a, b
}

// pairCounts runs a join and returns the multiset of its emitted pairs, their
// sequence and its stats.
func pairCounts(alg join.Algorithm, a, b []join.Object, eps float64) (map[join.Pair]int, []join.Pair, join.Stats) {
	got := make(map[join.Pair]int)
	var seq []join.Pair
	st := alg.Join(a, b, eps, func(p join.Pair) {
		got[p]++
		seq = append(seq, p)
	})
	return got, seq, st
}

// sameWork compares the five work counters; the times are not compared.
func sameWork(x, y join.Stats) bool {
	return x.BoxTests == y.BoxTests && x.NodePairs == y.NodePairs &&
		x.Comparisons == y.Comparisons && x.Results == y.Results && x.ExtraBytes == y.ExtraBytes
}

// checkMatchesReference runs Join at every worker count and holds it to
// refJoin: the same pair multiset, the same five counters, and one emission
// sequence whatever the worker count.
func checkMatchesReference(t *testing.T, name string, opts Options, a, b []join.Object, eps float64) {
	t.Helper()
	want := make(map[join.Pair]int)
	wst := refJoin(opts, a, b, eps, func(p join.Pair) { want[p]++ })
	var first []join.Pair
	for i, w := range []int{0, 1, 2, 4, 7, -1} {
		o := opts
		o.Workers = w
		got, seq, st := pairCounts(&Touch{Opts: o}, a, b, eps)
		if !sameWork(st, wst) {
			t.Fatalf("%s workers=%d: stats %+v, reference %+v", name, w, st, wst)
		}
		if len(got) != len(want) {
			t.Fatalf("%s workers=%d: %d distinct pairs, reference %d", name, w, len(got), len(want))
		}
		for p, n := range got {
			if want[p] != n {
				t.Fatalf("%s workers=%d: pair %v emitted %d times, reference %d", name, w, p, n, want[p])
			}
		}
		if i == 0 {
			first = seq
			continue
		}
		for k := range seq {
			if seq[k] != first[k] {
				t.Fatalf("%s workers=%d: emission order differs from workers=0 at %d", name, w, k)
			}
		}
	}
}

// TestJoinMatchesReference is the differential test against the per-object
// TOUCH: random and neuron data across eps, fanout, assignment depth and
// worker count.
func TestJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	na, nb := neuronHalves()
	inputs := []struct {
		name string
		a, b []join.Object
	}{
		{"random", randObjects(rng, 600, 20), randObjects(rng, 500, 20)},
		{"neuron", na, nb},
	}
	for _, in := range inputs {
		for _, eps := range []float64{0, 0.2, 1, 3} {
			for _, fanout := range []int{4, 8, 16, 64} {
				for _, depth := range []int{0, 1, 2} {
					name := fmt.Sprintf("%s eps=%g fanout=%d depth=%d", in.name, eps, fanout, depth)
					checkMatchesReference(t, name, Options{Fanout: fanout, MaxAssignDepth: depth}, in.a, in.b, eps)
				}
			}
		}
	}
}

// TestJoinMatchesReferenceLargeBucket puts most of B into the root's bucket,
// so that bucket spans more than two probe chunks and its last chunk is a
// partial one.
func TestJoinMatchesReferenceLargeBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	a := randObjects(rng, 300, 20)
	n := 2*probeChunk + probeChunk/3
	b := make([]join.Object, n)
	for i := range b {
		// Segments across the whole volume overlap several root children.
		p := geom.V(rng.Float64()*2, rng.Float64()*2, rng.Float64()*2)
		b[i] = join.Make(int32(i), geom.Seg(p, p.Add(geom.V(18, 18, 18)), 0.05))
	}
	const eps = 0.2
	h := buildHierarchy(a, eps, DefaultFanout)
	root := h.nodes[0]
	inRoot := 0
	for i := range b {
		hits := 0
		for c := root.first; c < root.first+root.count; c++ {
			if h.nodes[c].box.Intersects(b[i].Box) {
				hits++
			}
		}
		if hits > 1 {
			inRoot++
		}
	}
	if inRoot <= 2*probeChunk {
		t.Fatalf("root bucket holds %d objects, want more than %d", inRoot, 2*probeChunk)
	}
	checkMatchesReference(t, "large bucket", Options{}, a, b, eps)
}

// TestJoinMatchesReferenceFarShell: every B object falls into empty space.
func TestJoinMatchesReferenceFarShell(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	a := randObjects(rng, 200, 10)
	b := randObjects(rng, 200, 10)
	for i := range b {
		b[i] = join.Make(b[i].ID, geom.Seg(b[i].Seg.A.Add(geom.V(500, 500, 500)),
			b[i].Seg.B.Add(geom.V(500, 500, 500)), b[i].Seg.Radius))
	}
	checkMatchesReference(t, "far shell", Options{}, a, b, 1)
}

// refJoin is TOUCH as it stood before the level-order hierarchy and the
// chunked probe: a pointer rtree.Tree flattened in pre-order through
// NodeView, one descent per B object, and one bucket per parallel work unit.
// TestJoinMatchesReference holds Join to it: same pairs, same counters.
func refJoin(opts Options, a, b []join.Object, eps float64, emit func(join.Pair)) join.Stats {
	var st join.Stats
	if len(a) == 0 || len(b) == 0 {
		return st
	}
	fanout := opts.Fanout
	if fanout <= 0 {
		fanout = DefaultFanout
	}

	// Phase 1: data-oriented partitioning of A, flattened. STR-pack A into
	// tiles, then build the hierarchy bottom-up in contiguous arrays with
	// every MBR pre-expanded by eps (so the hot loops test plain overlap).
	buildStart := time.Now()
	items := make([]rtree.Item, len(a))
	for i := range a {
		items[i] = rtree.Item{Box: a[i].Box, ID: int32(i)}
	}
	tree, err := rtree.STR(items, fanout)
	if err != nil {
		panic(err) // unreachable: fanout validated above
	}
	root, ok := tree.Root()
	if !ok {
		st.BuildTime = time.Since(buildStart)
		return st
	}

	var (
		nodes []flatNode  // nodes[0] is the root
		kids  []int32     // child-node indices, ranges per internal node
		leafA []int32     // A indices, ranges per leaf
		leafB []geom.AABB // A boxes expanded by eps, parallel to leafA
	)
	var flatten func(v rtree.NodeView) int32
	flatten = func(v rtree.NodeView) int32 {
		idx := int32(len(nodes))
		nodes = append(nodes, flatNode{box: v.Box().Expand(eps), isLeaf: v.IsLeaf()})
		if v.IsLeaf() {
			first := int32(len(leafA))
			for _, it := range v.Items() {
				leafA = append(leafA, it.ID)
				leafB = append(leafB, a[it.ID].Box.Expand(eps))
			}
			nodes[idx].first = first
			nodes[idx].count = int32(len(leafA)) - first
			return idx
		}
		// Reserve the child range after recursing: children are appended
		// to kids contiguously per parent, so recurse first into a local
		// buffer of indices.
		childIdx := make([]int32, 0, v.NumChildren())
		for i := 0; i < v.NumChildren(); i++ {
			childIdx = append(childIdx, flatten(v.Child(i)))
		}
		first := int32(len(kids))
		kids = append(kids, childIdx...)
		nodes[idx].first = first
		nodes[idx].count = int32(len(childIdx))
		return idx
	}
	rootIdx := flatten(root)

	// Phase 2: hierarchical assignment of B.
	buckets := make([][]int32, len(nodes))
	assigned := 0
	maxDepth := opts.MaxAssignDepth
	for i := range b {
		bbox := b[i].Box
		cur := rootIdx
		st.BoxTests++
		if !nodes[cur].box.Intersects(bbox) {
			continue // empty space at the root: filtered
		}
		depth := 0
		dropped := false
		for !nodes[cur].isLeaf && (maxDepth <= 0 || depth < maxDepth) {
			n := &nodes[cur]
			match := int32(-1)
			matches := 0
			for k := n.first; k < n.first+n.count; k++ {
				c := kids[k]
				st.BoxTests++
				if nodes[c].box.Intersects(bbox) {
					matches++
					match = c
					if matches > 1 {
						break
					}
				}
			}
			if matches == 0 {
				// Empty space between the children: filtered out.
				dropped = true
				break
			}
			if matches > 1 {
				break // partners may live under several children: assign here
			}
			cur = match
			depth++
		}
		if !dropped {
			buckets[cur] = append(buckets[cur], int32(i))
			assigned++
		}
	}
	// Memory: flattened tree entries + one bucket slot per surviving object.
	st.ExtraBytes = int64(len(nodes))*(6*8+9) + int64(len(leafA))*(4+6*8) +
		int64(len(kids))*4 + int64(assigned)*4
	st.BuildTime = time.Since(buildStart)

	// Phase 3: probe each bucket against its subtree. probeOne is shared by
	// the serial and parallel paths; it touches only read-only state plus
	// the caller-owned stats and emit.
	probeOne := func(nodeIdx int32, bi int32, st *join.Stats, stack []int32, emit func(join.Pair)) []int32 {
		bObj := &b[bi]
		bbox := bObj.Box
		stack = append(stack[:0], nodeIdx)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &nodes[cur]
			st.NodePairs++
			if n.isLeaf {
				for k := n.first; k < n.first+n.count; k++ {
					st.BoxTests++
					if !leafB[k].Intersects(bbox) {
						continue
					}
					ai := leafA[k]
					st.Comparisons++
					if a[ai].Seg.WithinDist(bObj.Seg, eps) {
						st.Results++
						emit(join.Pair{A: a[ai].ID, B: bObj.ID})
					}
				}
				continue
			}
			for k := n.first; k < n.first+n.count; k++ {
				c := kids[k]
				st.BoxTests++
				if nodes[c].box.Intersects(bbox) {
					stack = append(stack, c)
				}
			}
		}
		return stack
	}

	probeStart := time.Now()
	if w := opts.Workers; w != 0 && w != 1 {
		refProbeParallel(parallel.Workers(w), buckets, probeOne, &st, emit)
	} else {
		stack := make([]int32, 0, 64)
		for nodeIdx, ids := range buckets {
			for _, bi := range ids {
				stack = probeOne(int32(nodeIdx), bi, &st, stack, emit)
			}
		}
	}
	st.ProbeTime = time.Since(probeStart)
	return st
}

// refProbeWork is the unit handed to probe workers: one bucket.
type refProbeWork struct {
	node int32
	ids  []int32
}

// refProbeParallel fans the non-empty buckets out to the shared worker pool:
// one slot per bucket, per-worker stats and scratch stacks, per-bucket pair
// buffers merged in bucket order. Bucket order is the serial probe's
// iteration order, so the emitted sequence is identical to a serial probe
// for any worker count.
func refProbeParallel(workers int, buckets [][]int32,
	probeOne func(int32, int32, *join.Stats, []int32, func(join.Pair)) []int32,
	st *join.Stats, emit func(join.Pair)) {

	var work []refProbeWork
	for nodeIdx, ids := range buckets {
		if len(ids) > 0 {
			work = append(work, refProbeWork{node: int32(nodeIdx), ids: ids})
		}
	}
	stats := make([]join.Stats, workers)
	stacks := make([][]int32, workers)
	parallel.Collect(workers, len(work), func(w, slot int, emitLocal func(join.Pair)) {
		local := &stats[w]
		for _, bi := range work[slot].ids {
			stacks[w] = probeOne(work[slot].node, bi, local, stacks[w], emitLocal)
		}
	}, emit)
	st.Merge(stats)
}
