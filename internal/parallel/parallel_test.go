package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	for _, n := range []int{0, -1, -100} {
		got := Workers(n)
		if got < 1 {
			t.Errorf("Workers(%d) = %d, want >= 1", n, got)
		}
		if runtime.NumCPU() > 1 && got != runtime.NumCPU() {
			t.Errorf("Workers(%d) = %d, want NumCPU = %d", n, got, runtime.NumCPU())
		}
	}
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		n, parts int
		want     int // number of ranges
	}{
		{0, 4, 0},
		{-3, 4, 0},
		{1, 4, 1},
		{4, 4, 4},
		{10, 3, 3},
		{10, 0, 1},
		{100, 7, 7},
	} {
		rs := Split(tc.n, tc.parts)
		if len(rs) != tc.want {
			t.Errorf("Split(%d, %d) gave %d ranges, want %d", tc.n, tc.parts, len(rs), tc.want)
			continue
		}
		// Ranges must tile [0, n) exactly, in order, with sizes differing by
		// at most one.
		next := 0
		minLen, maxLen := tc.n+1, 0
		for _, r := range rs {
			if r.Lo != next {
				t.Errorf("Split(%d, %d): range %v does not start at %d", tc.n, tc.parts, r, next)
			}
			if r.Len() <= 0 {
				t.Errorf("Split(%d, %d): empty range %v", tc.n, tc.parts, r)
			}
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
			next = r.Hi
		}
		if tc.n > 0 && next != tc.n {
			t.Errorf("Split(%d, %d): ranges end at %d", tc.n, tc.parts, next)
		}
		if tc.n > 0 && maxLen-minLen > 1 {
			t.Errorf("Split(%d, %d): range sizes span [%d, %d]", tc.n, tc.parts, minLen, maxLen)
		}
	}
}

func TestForEachCoversEverySlotOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		const n = 1000
		var hits [n]atomic.Int32
		ForEach(workers, n, func(worker, slot int) {
			if worker < 0 || worker >= Workers(workers) {
				t.Errorf("worker id %d out of range", worker)
			}
			hits[slot].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: slot %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(4, 0, func(int, int) { called = true })
	if called {
		t.Error("ForEach called fn for n=0")
	}
}

func TestCollectIsOrderDeterministic(t *testing.T) {
	const n = 500
	// Each slot emits a variable number of values; the merged stream must be
	// identical to the serial order for every worker count.
	work := func(worker, slot int, emit func(int)) {
		for k := 0; k <= slot%3; k++ {
			emit(slot*10 + k)
		}
	}
	var want []int
	Collect(1, n, work, func(v int) { want = append(want, v) })
	for _, workers := range []int{2, 3, 8} {
		var got []int
		Collect(workers, n, work, func(v int) { got = append(got, v) })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d values, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: value %d is %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMap(t *testing.T) {
	got := Map(4, 100, func(worker, slot int) int { return slot * slot })
	if len(got) != 100 {
		t.Fatalf("Map returned %d results", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
	if Map(4, 0, func(int, int) int { return 0 }) != nil {
		t.Error("Map with n=0 should return nil")
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Int32
	Do(
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Errorf("Do left %d %d %d", a.Load(), b.Load(), c.Load())
	}
	Do(func() { a.Store(9) }) // single-function fast path
	if a.Load() != 9 {
		t.Error("Do single-function path did not run")
	}
}

// TestBatchMatchesSerial asserts the generic batch executor's core
// guarantee: for any worker count, visit observes exactly the (slot, hit)
// sequence of a serial loop, and the per-slot summaries are identical.
func TestBatchMatchesSerial(t *testing.T) {
	const n = 37
	run := func(qi int, emit func(int)) (int, error) {
		// Slot qi emits qi%5 hits: deterministic, skewed sizes.
		for k := 0; k < qi%5; k++ {
			emit(qi*100 + k)
		}
		return qi * 7, nil
	}
	batch := func(workers, n int, visit func(q, h int)) []int {
		t.Helper()
		sums, err := BatchCtx(context.Background(), workers, n, run, visit)
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", workers, n, err)
		}
		return sums
	}
	type pair struct{ q, h int }
	var want []pair
	wantSums := batch(1, n, func(q, h int) { want = append(want, pair{q, h}) })
	for _, w := range []int{0, 2, 3, 8, -1} {
		var got []pair
		sums := batch(w, n, func(q, h int) { got = append(got, pair{q, h}) })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d hits, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: hit %d is %+v, want %+v", w, i, got[i], want[i])
			}
		}
		for i := range sums {
			if sums[i] != wantSums[i] {
				t.Errorf("workers=%d: summary %d = %d, want %d", w, i, sums[i], wantSums[i])
			}
		}
	}
	// nil visit: summaries only, no panic.
	sums := batch(4, n, nil)
	for i := range sums {
		if sums[i] != i*7 {
			t.Errorf("nil-visit summary %d = %d", i, sums[i])
		}
	}
	if got := batch(4, 0, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d summaries", len(got))
	}
}

// TestWorkerCountInvariance pins the determinism contract of the per-worker
// buffered executors after the segment-table rework: for every worker count,
// Collect and BatchCtx must deliver byte-for-byte the serial loop's
// output, including under heavy emission skew (slot i emits i%5 values, so
// worker buffers interleave segments from many slots).
func TestWorkerCountInvariance(t *testing.T) {
	const n = 257
	emitSlot := func(slot int, emit func(int)) {
		for j := 0; j < slot%5; j++ {
			emit(slot*100 + j)
		}
	}
	var want []int
	for i := 0; i < n; i++ {
		emitSlot(i, func(v int) { want = append(want, v) })
	}
	for _, w := range []int{1, 2, 3, 4, 7, 16, n, n + 9} {
		var got []int
		Collect(w, n, func(_, slot int, emit func(int)) {
			emitSlot(slot, emit)
		}, func(v int) { got = append(got, v) })
		if len(got) != len(want) {
			t.Fatalf("Collect workers=%d: %d values, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Collect workers=%d: value %d = %d, want %d", w, i, got[i], want[i])
			}
		}

		got = got[:0]
		var slots []int
		sums, err := BatchCtx(nil, w, n, func(qi int, emit func(int)) (int, error) {
			emitSlot(qi, emit)
			return qi * 3, nil
		}, func(qi, v int) { slots = append(slots, qi); got = append(got, v) })
		if err != nil {
			t.Fatalf("BatchCtx workers=%d: %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] || slots[i] != want[i]/100 {
				t.Fatalf("BatchCtx workers=%d: visit %d = (%d,%d), want (%d,%d)",
					w, i, slots[i], got[i], want[i]/100, want[i])
			}
		}
		for qi, s := range sums {
			if s != qi*3 {
				t.Fatalf("BatchCtx workers=%d: summary %d = %d", w, qi, s)
			}
		}
	}
}

// TestBufferedExecutorsConcurrent exercises the pooled segment/error tables
// under concurrent invocations with different element types and sizes: runs
// must never observe each other's state (run with -race to check the pooled
// tables are handed out exclusively).
func TestBufferedExecutorsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				n := 10 + (g+iter)%40
				if g%2 == 0 {
					var got []int
					Collect(4, n, func(_, slot int, emit func(int)) {
						emit(slot)
					}, func(v int) { got = append(got, v) })
					for i := 0; i < n; i++ {
						if got[i] != i {
							t.Errorf("goroutine %d: Collect slot %d = %d", g, i, got[i])
							return
						}
					}
				} else {
					var got []string
					_, err := BatchCtx(nil, 4, n, func(qi int, emit func(string)) (struct{}, error) {
						if qi%2 == 0 {
							emit("s")
						}
						return struct{}{}, nil
					}, func(qi int, s string) { got = append(got, s) })
					if err != nil {
						t.Errorf("goroutine %d: BatchCtx error %v", g, err)
						return
					}
					if len(got) != (n+1)/2 {
						t.Errorf("goroutine %d: %d visits, want %d", g, len(got), (n+1)/2)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
