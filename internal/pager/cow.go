package pager

import "fmt"

// CowStats accounts a copy-on-write remap: how much of the previous store a
// rebuilt layout reused versus rewrote. Shared pages are the incremental win —
// a disk-backed implementation would not touch them at all.
type CowStats struct {
	// Shared counts pages carried over unchanged (same backing content as
	// the base store — no copy).
	Shared int
	// Patched counts pages rewritten copy-on-write (some entries dropped).
	Patched int
	// Dropped counts trailing base pages discarded by Truncate.
	Dropped int
	// Appended counts new pages added after the base pages.
	Appended int
}

// Add accumulates o into s (for cumulative per-dataset accounting).
func (s *CowStats) Add(o CowStats) {
	s.Shared += o.Shared
	s.Patched += o.Patched
	s.Dropped += o.Dropped
	s.Appended += o.Appended
}

// CowBuilder derives a new Store from an existing one by copy-on-write page
// remapping: every base page starts out shared (the new store references the
// base page's content without copying), pages holding deleted entries are
// patched into filtered copies in place (their PageID is preserved), trailing
// pages can be truncated, and new pages appended. This is the maintenance
// primitive of the engine's snapshot layouts: a commit touching k of n pages
// produces a new immutable store in O(k), with the other n-k pages shared.
//
// The base store is never modified; the builder is single-use (Build
// invalidates it) and not safe for concurrent use.
type CowBuilder struct {
	base   *Store
	pages  [][]int32
	copied []bool // pages[i] was rewritten (not a base reference)
	stats  CowStats
}

// NewCow returns a builder whose initial state shares every page of base.
func NewCow(base *Store) *CowBuilder {
	pages := make([][]int32, base.NumPages())
	copy(pages, base.pages)
	return &CowBuilder{
		base:   base,
		pages:  pages,
		copied: make([]bool, base.NumPages()),
	}
}

// Truncate discards the pages at index n and beyond (a no-op when the builder
// already holds at most n pages). Snapshot commits use it to drop the
// previous epoch's delta pages before appending the new delta.
func (c *CowBuilder) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(c.pages) {
		return
	}
	c.stats.Dropped += len(c.pages) - n
	c.pages = c.pages[:n]
	c.copied = c.copied[:n]
}

// Patch rewrites page p copy-on-write, keeping only the entries keep accepts.
// When nothing is dropped the page stays shared (no copy, no Patched count).
// The page keeps its PageID, so remaining entries stay addressable at their
// old page.
func (c *CowBuilder) Patch(p PageID, keep func(int32) bool) error {
	if p < 0 || int(p) >= len(c.pages) {
		return fmt.Errorf("pager: Patch of page %d outside [0,%d)", p, len(c.pages))
	}
	old := c.pages[p]
	kept := make([]int32, 0, len(old))
	for _, id := range old {
		if keep(id) {
			kept = append(kept, id)
		}
	}
	if len(kept) == len(old) {
		return nil // nothing dropped: keep sharing
	}
	if !c.copied[p] {
		c.stats.Patched++
	}
	c.pages[p] = kept
	c.copied[p] = true
	return nil
}

// Append adds ids as a new page. The slice is retained, not copied — like
// every page of a Store it must not be modified afterwards — so a caller that
// already holds immutable page-sized ID runs (the engine's delta chunks)
// shares them with the layout. The page content must fit the base store's
// capacity.
func (c *CowBuilder) Append(ids []int32) (PageID, error) {
	if len(ids) > c.base.Capacity() {
		return InvalidPage, fmt.Errorf("pager: Append of %d entries exceeds page capacity %d",
			len(ids), c.base.Capacity())
	}
	c.pages = append(c.pages, ids)
	c.copied = append(c.copied, true)
	c.stats.Appended++
	return PageID(len(c.pages) - 1), nil
}

// Build finalizes the remapped store and reports the reuse accounting. The
// builder must not be used afterwards.
func (c *CowBuilder) Build() (*Store, CowStats) {
	st := c.stats
	for i := range c.pages {
		if !c.copied[i] {
			st.Shared++
		}
	}
	out := &Store{pages: c.pages, capacity: c.base.capacity}
	c.pages, c.copied, c.base = nil, nil, nil
	return out, st
}
