package pager

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"neurospatial/internal/geom"
)

func buildStore(t *testing.T, capacity, elems int) *Store {
	t.Helper()
	b, err := NewBuilder(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < elems; i++ {
		b.Add(int32(i))
	}
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewBuilder(-3); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestBuilderPacksPages(t *testing.T) {
	s := buildStore(t, 4, 10)
	if s.NumPages() != 3 {
		t.Fatalf("pages = %d, want 3", s.NumPages())
	}
	if s.Capacity() != 4 {
		t.Errorf("capacity = %d", s.Capacity())
	}
	want := [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	for i, w := range want {
		got := s.Page(PageID(i))
		if len(got) != len(w) {
			t.Fatalf("page %d has %d elements", i, len(got))
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("page %d element %d = %d", i, j, got[j])
			}
		}
	}
}

func TestBuilderAddReturnsPageID(t *testing.T) {
	b, _ := NewBuilder(2)
	ids := []PageID{b.Add(0), b.Add(1), b.Add(2), b.Add(3), b.Add(4)}
	want := []PageID{0, 0, 1, 1, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("Add %d landed on page %d, want %d", i, ids[i], want[i])
		}
	}
}

func TestBuilderFlushPage(t *testing.T) {
	b, _ := NewBuilder(4)
	b.Add(1)
	b.FlushPage()
	b.FlushPage() // idempotent on empty page
	b.Add(2)
	s := b.Build()
	if s.NumPages() != 2 {
		t.Fatalf("pages = %d, want 2", s.NumPages())
	}
	if len(s.Page(0)) != 1 || len(s.Page(1)) != 1 {
		t.Error("flush did not split pages")
	}
}

func TestEmptyStore(t *testing.T) {
	b, _ := NewBuilder(4)
	s := b.Build()
	if s.NumPages() != 0 {
		t.Errorf("empty store has %d pages", s.NumPages())
	}
}

func TestPoolValidation(t *testing.T) {
	s := buildStore(t, 2, 4)
	if _, err := NewBufferPool(s, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestPoolDemandReadsAndHits(t *testing.T) {
	s := buildStore(t, 2, 8) // 4 pages
	p, err := NewBufferPool(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Get(0); len(got) != 2 || got[0] != 0 {
		t.Fatalf("Get(0) = %v", got)
	}
	p.Get(1)
	p.Get(0) // hit
	st := p.Stats()
	if st.DemandReads != 2 || st.Hits != 1 || st.PrefetchReads != 0 {
		t.Errorf("stats = %+v", st)
	}
	if p.Len() != 2 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestPoolLRUEviction(t *testing.T) {
	s := buildStore(t, 1, 4) // 4 pages of 1
	p, _ := NewBufferPool(s, 2)
	p.Get(0)
	p.Get(1)
	p.Get(0) // 0 is now MRU
	p.Get(2) // evicts 1 (LRU)
	if !p.Contains(0) || p.Contains(1) || !p.Contains(2) {
		t.Errorf("LRU state wrong: 0=%v 1=%v 2=%v", p.Contains(0), p.Contains(1), p.Contains(2))
	}
	if p.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", p.Stats().Evictions)
	}
}

// TestBufferPoolOutOfRange asks a full pool for pages below and past its
// store: a prefetch is ignored, and a demand read panics, and neither counts a
// read, inserts an entry or evicts a cached page.
func TestBufferPoolOutOfRange(t *testing.T) {
	s := buildStore(t, 4, 12) // 3 pages
	pool, _ := NewBufferPool(s, 2)
	pool.Get(0)
	pool.Get(1)
	before := pool.Stats()
	for _, id := range []PageID{-1, 3, math.MaxInt32} {
		pool.Prefetch(id)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) on a %d-page store returned", id, s.NumPages())
				}
			}()
			pool.Get(id)
		}()
	}
	if got := pool.Stats(); got != before {
		t.Errorf("stats moved: %+v, want %+v", got, before)
	}
	if pool.Len() != 2 || !pool.Contains(0) || !pool.Contains(1) {
		t.Errorf("pool holds %d pages, 0 cached %v, 1 cached %v; want pages 0 and 1", pool.Len(), pool.Contains(0), pool.Contains(1))
	}
}

func TestPrefetchAccounting(t *testing.T) {
	s := buildStore(t, 1, 6)
	p, _ := NewBufferPool(s, 6)
	p.Prefetch(3)
	p.Prefetch(3) // no-op: already cached
	st := p.Stats()
	if st.PrefetchReads != 1 || st.DemandReads != 0 {
		t.Fatalf("stats after prefetch = %+v", st)
	}
	p.Get(3) // prefetch hit
	st = p.Stats()
	if st.Hits != 1 || st.PrefetchHits != 1 {
		t.Fatalf("stats after demand = %+v", st)
	}
	p.Get(3) // ordinary hit now: prefetched flag consumed
	st = p.Stats()
	if st.Hits != 2 || st.PrefetchHits != 1 {
		t.Fatalf("stats after second demand = %+v", st)
	}
}

func TestPrefetchDoesNotPromote(t *testing.T) {
	s := buildStore(t, 1, 4)
	p, _ := NewBufferPool(s, 2)
	p.Get(0)
	p.Get(1)      // LRU order: 1 (MRU), 0
	p.Prefetch(0) // cached: must not promote 0
	p.Get(2)      // evicts 0, not 1
	if p.Contains(0) {
		t.Error("prefetch promoted a cached page")
	}
	if !p.Contains(1) {
		t.Error("wrong page evicted")
	}
}

func TestFlushPreservesStats(t *testing.T) {
	s := buildStore(t, 1, 4)
	p, _ := NewBufferPool(s, 4)
	p.Get(0)
	p.Get(1)
	p.Flush()
	if p.Len() != 0 {
		t.Errorf("len after flush = %d", p.Len())
	}
	if p.Stats().DemandReads != 2 {
		t.Error("flush cleared stats")
	}
	p.Get(0) // miss again after flush
	if p.Stats().DemandReads != 3 {
		t.Error("post-flush read not counted as miss")
	}
	p.ResetStats()
	if p.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestStatsSubAndCost(t *testing.T) {
	a := Stats{DemandReads: 10, PrefetchReads: 4, Hits: 20, PrefetchHits: 3, Evictions: 1}
	b := Stats{DemandReads: 4, PrefetchReads: 1, Hits: 5, PrefetchHits: 1, Evictions: 0}
	d := a.Sub(b)
	if d.DemandReads != 6 || d.PrefetchReads != 3 || d.Hits != 15 || d.PrefetchHits != 2 || d.Evictions != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if a.PhysicalReads() != 14 {
		t.Errorf("PhysicalReads = %d", a.PhysicalReads())
	}
	m := DefaultCostModel()
	if got := m.DemandLatency(d); got != 6*5*time.Millisecond {
		t.Errorf("DemandLatency = %v", got)
	}
}

// Property: under any access sequence the pool never exceeds capacity, and a
// Get immediately after a Get of the same page is always a hit.
func TestPoolInvariantsRandomized(t *testing.T) {
	s := buildStore(t, 2, 100) // 50 pages
	p, _ := NewBufferPool(s, 7)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		id := PageID(rng.Intn(50))
		if rng.Intn(3) == 0 {
			p.Prefetch(id)
		} else {
			p.Get(id)
			before := p.Stats().Hits
			p.Get(id)
			if p.Stats().Hits != before+1 {
				t.Fatal("immediate re-Get was not a hit")
			}
		}
		if p.Len() > p.Capacity() {
			t.Fatalf("pool over capacity: %d > %d", p.Len(), p.Capacity())
		}
	}
	st := p.Stats()
	if st.PhysicalReads()+st.Hits == 0 {
		t.Fatal("no activity recorded")
	}
	// Conservation: pages in pool = reads - evictions.
	if int64(p.Len()) != st.PhysicalReads()-st.Evictions {
		t.Fatalf("conservation violated: len=%d reads=%d evictions=%d",
			p.Len(), st.PhysicalReads(), st.Evictions)
	}
}

// Property (testing/quick): Stats.Sub is the inverse of component-wise
// addition and PhysicalReads splits into its two components.
func TestQuickStatsAlgebra(t *testing.T) {
	f := func(d1, p1, h1, ph1, e1, d2, p2, h2, ph2, e2 int32) bool {
		a := Stats{int64(d1), int64(p1), int64(h1), int64(ph1), int64(e1)}
		b := Stats{int64(d2), int64(p2), int64(h2), int64(ph2), int64(e2)}
		sum := Stats{
			a.DemandReads + b.DemandReads,
			a.PrefetchReads + b.PrefetchReads,
			a.Hits + b.Hits,
			a.PrefetchHits + b.PrefetchHits,
			a.Evictions + b.Evictions,
		}
		return sum.Sub(b) == a && sum.Sub(a) == b &&
			a.PhysicalReads() == a.DemandReads+a.PrefetchReads
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCoordsFilterPage pins the SoA page filter against the strided test it
// stands in for — same residents emitted, one box test per non-negative
// resident — and at zero allocations per page. Its only caller is the
// benchmark's traced replay (pager.filter_ns_per_page), so no engine alloc
// cell executes it.
func TestCoordsFilterPage(t *testing.T) {
	b, err := NewBuilder(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{0, 1, -1, 2, 3, 4, 5, -1, 6, 7} {
		b.Add(id)
	}
	s := b.Build()
	boxOf := func(id int32) geom.AABB { return geom.BoxAround(geom.V(float64(id), 0, 0), 0.25) }
	c := BuildCoords(s, boxOf)
	q := geom.Box(geom.V(1.5, -1, -1), geom.V(5.5, 1, 1))

	var got, want []int32
	tested, residents := 0, 0
	for p := 0; p < s.NumPages(); p++ {
		ids := s.Page(PageID(p))
		tested += c.FilterPage(PageID(p), ids, q, func(id int32) { got = append(got, id) })
		for _, id := range ids {
			if id < 0 {
				continue
			}
			residents++
			if boxOf(id).Intersects(q) {
				want = append(want, id)
			}
		}
	}
	if !slices.Equal(got, want) || len(want) == 0 {
		t.Fatalf("FilterPage emitted %v, strided filter %v", got, want)
	}
	if tested != residents {
		t.Errorf("FilterPage tested %d boxes, want one per non-negative resident (%d)", tested, residents)
	}
	matched := 0
	if allocs := testing.AllocsPerRun(20, func() {
		c.FilterPage(1, s.Page(1), q, func(int32) { matched++ })
	}); allocs != 0 {
		t.Errorf("FilterPage allocated %v times per page, want 0", allocs)
	}
}

// TestCoordsDist2At pins the kNN search's sidecar distance to
// geom.AABB.Dist2Point of the slot's box, bit for bit, for every slot —
// placeholder (empty-box) slots and unbounded boxes included — from finite,
// infinite and NaN centers.
func TestCoordsDist2At(t *testing.T) {
	b, err := NewBuilder(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{-1, 0, 1, 2, -1, 3, 4} {
		b.Add(id)
	}
	s := b.Build()
	inf := math.Inf(1)
	boxes := []geom.AABB{
		geom.BoxAround(geom.V(1, 2, 3), 0.5),
		geom.Box(geom.V(4, 4, 4), geom.V(4, 4, 4)),
		{Min: geom.V(-inf, -inf, -inf), Max: geom.V(inf, inf, inf)},
		{Min: geom.V(0, -inf, 2), Max: geom.V(1, 0, inf)},
		geom.Box(geom.V(-7, 0, math.Copysign(0, -1)), geom.V(-6, 1, 0)),
	}
	c := BuildCoords(s, func(id int32) geom.AABB { return boxes[id] })
	centers := []geom.Vec{
		geom.V(0, 0, 0), geom.V(1, 2, 3), geom.V(inf, -inf, inf), geom.V(-inf, 0.5, 4),
		geom.V(math.NaN(), 1, 1), geom.V(math.Copysign(0, -1), -100, 1e300),
	}
	slots := 0
	for p := 0; p < s.NumPages(); p++ {
		slots += len(s.Page(PageID(p)))
	}
	for i := 0; i < slots; i++ {
		for _, p := range centers {
			got, want := c.Dist2At(i, p), c.BoxAt(i).Dist2Point(p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("slot %d, center %v: Dist2At %v, BoxAt(i).Dist2Point %v", i, p, got, want)
			}
		}
	}
}
