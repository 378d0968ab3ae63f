// Package pager simulates the disk subsystem under the spatial indexes.
//
// The demo's live statistics panel (Figure 3 of the paper) reports "disk
// pages retrieved" for FLAT and the R-tree, and SCOUT's benefit (Figure 6) is
// the page reads it hides inside the user's think time. Reproducing those
// numbers requires a storage layer with deterministic page accounting, so
// this package provides one: fixed-capacity pages of element IDs, an LRU
// buffer pool, and separate counters for demand reads, buffer hits and
// prefetch reads. An analytic latency model converts page counts into the
// simulated wall-clock times the experiment harnesses report; real
// wall-clock time is always measured separately.
package pager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageID identifies a page in a Store. Valid IDs are dense, starting at 0.
type PageID int32

// InvalidPage is returned by lookups that find no page.
const InvalidPage PageID = -1

// Store is an immutable collection of pages, each holding the IDs of the
// elements laid out on it. Build one with a Builder.
type Store struct {
	pages    [][]int32
	capacity int
}

// NumPages returns the number of pages in the store.
func (s *Store) NumPages() int { return len(s.pages) }

// Capacity returns the maximum number of element IDs per page.
func (s *Store) Capacity() int { return s.capacity }

// Page returns the element IDs on page id. The returned slice is shared and
// must not be modified.
func (s *Store) Page(id PageID) []int32 {
	return s.pages[id]
}

// PageSource is where a query execution path reads its data pages from. The
// two implementations in this package bracket the storage regimes the
// experiments compare: a bare *Store models a cold read per page, while a
// *BufferPool serves cached pages with full I/O accounting (and receives
// prefetches). Every index behind engine.SpatialIndex reads through a
// PageSource, so the buffer-pool + prefetch stack sits beneath any of them,
// not just FLAT.
type PageSource interface {
	// ReadPage returns the element IDs on page id. The slice is shared and
	// must not be modified.
	ReadPage(id PageID) []int32
}

// ReadPage implements PageSource: a direct store read, modelling one cold
// physical read with no caching or accounting.
func (s *Store) ReadPage(id PageID) []int32 { return s.Page(id) }

// Counting wraps a PageSource with an independent read counter — the proof
// harness of the streaming result path's early-stop guarantees: attach one
// under an index and the counter records exactly how many page reads an
// execution issued, independent of the index's own QueryStats accounting.
// It is safe for concurrent use when the wrapped source is.
type Counting struct {
	src   PageSource
	reads atomic.Int64
}

// NewCounting wraps src.
func NewCounting(src PageSource) *Counting { return &Counting{src: src} }

// ReadPage implements PageSource, counting the read.
func (c *Counting) ReadPage(id PageID) []int32 {
	c.reads.Add(1)
	return c.src.ReadPage(id)
}

// Reads returns the number of page reads issued through the wrapper.
func (c *Counting) Reads() int64 { return c.reads.Load() }

// Reset zeroes the counter.
func (c *Counting) Reset() { c.reads.Store(0) }

// Builder accumulates pages for a Store.
type Builder struct {
	store Store
	cur   []int32
}

// NewBuilder returns a builder for pages holding up to capacity element IDs.
func NewBuilder(capacity int) (*Builder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("pager: page capacity must be positive, got %d", capacity)
	}
	return &Builder{store: Store{capacity: capacity}}, nil
}

// Add appends an element ID to the page under construction, starting a new
// page when the current one is full. It returns the page the element landed
// on.
func (b *Builder) Add(elem int32) PageID {
	if len(b.cur) == b.store.capacity {
		b.FlushPage()
	}
	b.cur = append(b.cur, elem)
	return PageID(len(b.store.pages))
}

// FlushPage closes the page under construction (a no-op when it is empty).
func (b *Builder) FlushPage() {
	if len(b.cur) == 0 {
		return
	}
	b.store.pages = append(b.store.pages, b.cur)
	b.cur = nil
}

// Build finalizes and returns the store. The builder must not be used
// afterwards.
func (b *Builder) Build() *Store {
	b.FlushPage()
	s := b.store
	b.store = Store{}
	return &s
}

// Stats counts the I/O activity of a buffer pool. All counters are
// cumulative; use Sub to compute per-query deltas.
type Stats struct {
	// DemandReads counts physical page reads issued on the query path.
	DemandReads int64
	// PrefetchReads counts physical page reads issued by a prefetcher.
	PrefetchReads int64
	// Hits counts page requests satisfied by the buffer pool.
	Hits int64
	// PrefetchHits counts demand requests satisfied by a page that was
	// brought in by a prefetcher and had not yet been demanded.
	PrefetchHits int64
	// Evictions counts pages dropped by the LRU policy.
	Evictions int64
}

// Sub returns s - o, the activity between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		DemandReads:   s.DemandReads - o.DemandReads,
		PrefetchReads: s.PrefetchReads - o.PrefetchReads,
		Hits:          s.Hits - o.Hits,
		PrefetchHits:  s.PrefetchHits - o.PrefetchHits,
		Evictions:     s.Evictions - o.Evictions,
	}
}

// PhysicalReads returns the total physical reads (demand + prefetch).
func (s Stats) PhysicalReads() int64 { return s.DemandReads + s.PrefetchReads }

// CostModel converts page accounting into simulated latency. The defaults
// model a magnetic-disk array similar in spirit to the BlueGene/P I/O nodes
// of the paper: seeks dominate, so every page read costs the same.
type CostModel struct {
	// PageRead is the simulated latency of one physical page read.
	PageRead time.Duration
}

// DefaultCostModel returns the model used by the experiment harnesses:
// 5 ms per page read.
func DefaultCostModel() CostModel { return CostModel{PageRead: 5 * time.Millisecond} }

// DemandLatency returns the simulated time a query spent waiting for pages:
// only demand reads stall the user; prefetch reads are overlapped with think
// time by the caller's model.
func (m CostModel) DemandLatency(s Stats) time.Duration {
	return time.Duration(s.DemandReads) * m.PageRead
}

// lruEntry is a node of the intrusive LRU list.
type lruEntry struct {
	id         PageID
	prev, next *lruEntry
	prefetched bool // in pool due to prefetch, not yet demanded
}

// BufferPool is a fixed-capacity LRU cache of pages from one Store. It is
// safe for concurrent use: every operation holds the pool mutex, so each
// Get/Prefetch is atomic and the counters stay consistent (the accounting
// identity Hits + DemandReads == total Gets holds under any interleaving).
// Single-threaded runs remain exactly as deterministic as before; under
// concurrency the *totals* are reproducible for a fixed access multiset,
// while the hit/miss split of an individual request depends on which worker
// reached a shared page first.
type BufferPool struct {
	mu       sync.Mutex
	store    *Store
	capacity int
	entries  map[PageID]*lruEntry
	head     *lruEntry // most recently used
	tail     *lruEntry // least recently used
	stats    Stats
}

// NewBufferPool returns a pool caching up to capacity pages of store.
func NewBufferPool(store *Store, capacity int) (*BufferPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("pager: pool capacity must be positive, got %d", capacity)
	}
	return &BufferPool{
		store:    store,
		capacity: capacity,
		entries:  make(map[PageID]*lruEntry, capacity),
	}, nil
}

// Store returns the underlying page store.
func (p *BufferPool) Store() *Store { return p.store }

// Capacity returns the pool capacity in pages.
func (p *BufferPool) Capacity() int { return p.capacity }

// Len returns the number of pages currently cached.
func (p *BufferPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Stats returns a snapshot of the cumulative counters.
func (p *BufferPool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the counters without touching the cached pages.
func (p *BufferPool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Contains reports whether page id is cached, without touching LRU order or
// counters.
func (p *BufferPool) Contains(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[id]
	return ok
}

// Get returns the element IDs of page id, reading it from the store on a
// miss. It is the demand-read path: misses count as DemandReads, hits as
// Hits (and PrefetchHits when the page was prefetched and not yet demanded).
func (p *BufferPool) Get(id PageID) []int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[id]; ok {
		p.stats.Hits++
		if e.prefetched {
			p.stats.PrefetchHits++
			e.prefetched = false
		}
		p.touch(e)
		return p.store.Page(id)
	}
	p.stats.DemandReads++
	p.insert(id, false)
	return p.store.Page(id)
}

// ReadPage implements PageSource via the demand-read path (Get).
func (p *BufferPool) ReadPage(id PageID) []int32 { return p.Get(id) }

// Prefetch brings page id into the pool without a demand request. Cached
// pages are left untouched (no counter changes, no LRU promotion — a
// prefetcher re-requesting a hot page should not be able to pin it).
func (p *BufferPool) Prefetch(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[id]; ok {
		return
	}
	p.stats.PrefetchReads++
	p.insert(id, true)
}

// Flush empties the pool (for experiment repetitions needing a cold cache).
// Counters are preserved.
func (p *BufferPool) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = make(map[PageID]*lruEntry, p.capacity)
	p.head, p.tail = nil, nil
}

func (p *BufferPool) insert(id PageID, prefetched bool) {
	if len(p.entries) >= p.capacity {
		p.evict()
	}
	e := &lruEntry{id: id, prefetched: prefetched}
	p.entries[id] = e
	p.pushFront(e)
}

func (p *BufferPool) evict() {
	e := p.tail
	if e == nil {
		return
	}
	p.unlink(e)
	delete(p.entries, e.id)
	p.stats.Evictions++
}

func (p *BufferPool) touch(e *lruEntry) {
	if p.head == e {
		return
	}
	p.unlink(e)
	p.pushFront(e)
}

func (p *BufferPool) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

func (p *BufferPool) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
