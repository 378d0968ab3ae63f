package durable

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"neurospatial/internal/pager"
)

// Page file format:
//
//	magic u32, version u32, hlen u32
//	header body (hlen bytes):
//	    maxCapacity u32, numSegments u32,
//	    then per segment: name str, firstSlot u32, numPages u32, capacity u32
//	crc u32 (CRC-32C of everything preceding)
//	slots: one fixed-size slot per page, in segment-table order
//
// Each slot is slotBytes = 8 + 4*maxCapacity bytes:
//
//	crc u32 (CRC-32C of count+ids), count u32, count × id i32, zero padding
//
// Fixed-size slots make page offsets pure arithmetic — a cold read is one
// ReadAt, no per-page index — and the per-slot checksum catches torn or
// bit-flipped pages at read time.

// Segment pairs a name with the store whose pages it persists.
type Segment struct {
	Name  string
	Store *pager.Store
}

type segMeta struct {
	firstSlot int64
	numPages  int64
	capacity  int
}

// WritePageFile persists the given stores as named segments of a single page
// file and fsyncs it. Segment order is preserved; names must be unique.
func WritePageFile(path string, segs []Segment) error {
	maxCap := 1
	for _, s := range segs {
		if c := s.Store.Capacity(); c > maxCap {
			maxCap = c
		}
	}
	var body enc
	body.u32(uint32(maxCap))
	body.u32(uint32(len(segs)))
	slot := int64(0)
	for _, s := range segs {
		body.str(s.Name)
		body.u32(uint32(slot))
		body.u32(uint32(s.Store.NumPages()))
		body.u32(uint32(s.Store.Capacity()))
		slot += int64(s.Store.NumPages())
	}
	var h enc
	h.u32(pageMagic)
	h.u32(pageVersion)
	h.u32(uint32(len(body.b)))
	h.b = append(h.b, body.b...)
	h.u32(checksum(h.b))

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: write page file: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(h.b); err != nil {
		return fmt.Errorf("durable: write page file: %w", err)
	}
	slotBytes := 8 + 4*maxCap
	buf := make([]byte, slotBytes)
	for _, s := range segs {
		for p := 0; p < s.Store.NumPages(); p++ {
			ids := s.Store.Page(pager.PageID(p))
			if len(ids) > maxCap {
				return &FormatError{File: "pages", Reason: fmt.Sprintf(
					"segment %q page %d holds %d ids, over slot capacity %d", s.Name, p, len(ids), maxCap)}
			}
			for i := range buf {
				buf[i] = 0
			}
			le.PutUint32(buf[4:8], uint32(len(ids)))
			for i, id := range ids {
				le.PutUint32(buf[8+4*i:], uint32(id))
			}
			le.PutUint32(buf[0:4], checksum(buf[4:8+4*len(ids)]))
			if _, err := f.Write(buf); err != nil {
				return fmt.Errorf("durable: write page file: %w", err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: write page file: %w", err)
	}
	return nil
}

// PageFile is an open page file serving cold reads. Opening one parses only
// the header and segment table — no page slot is touched until a segment
// source's first ReadPage, which is how OpenDataset avoids a full-store scan
// (Reads stays 0 through open).
type PageFile struct {
	f         *os.File
	path      string
	slotBase  int64
	slotBytes int64
	segs      map[string]segMeta
	order     []string
	reads     atomic.Int64
	scratch   sync.Pool
}

// OpenPageFile opens path and validates its header, table and size.
func OpenPageFile(path string) (*PageFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("durable: open page file: %w", err)
	}
	pf, err := parsePageHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

func parsePageHeader(f *os.File) (*PageFile, error) {
	pre := make([]byte, 12)
	if _, err := f.ReadAt(pre, 0); err != nil {
		return nil, &FormatError{File: "pages", Reason: "truncated header"}
	}
	d := &dec{b: pre, file: "pages"}
	if d.u32() != pageMagic {
		return nil, &FormatError{File: "pages", Reason: "bad magic"}
	}
	if v := d.u32(); v != pageVersion {
		return nil, &FormatError{File: "pages", Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	hlen := int64(d.u32())
	if hlen > 1<<24 {
		return nil, &FormatError{File: "pages", Reason: "implausible header length"}
	}
	rest := make([]byte, hlen+4)
	if _, err := f.ReadAt(rest, 12); err != nil {
		return nil, &FormatError{File: "pages", Reason: "truncated header body"}
	}
	whole := append(pre, rest[:hlen]...)
	if checksum(whole) != le.Uint32(rest[hlen:]) {
		return nil, &CorruptError{File: "pages", Offset: 0, Reason: "header checksum mismatch"}
	}
	b := &dec{b: rest[:hlen], file: "pages"}
	maxCap := int(b.u32())
	nseg := int(b.u32())
	if b.truncated() || maxCap <= 0 || maxCap > 1<<20 || nseg < 0 || nseg > 1<<16 {
		return nil, &FormatError{File: "pages", Reason: "implausible header fields"}
	}
	pf := &PageFile{
		f:         f,
		path:      f.Name(),
		slotBase:  12 + hlen + 4,
		slotBytes: int64(8 + 4*maxCap),
		segs:      make(map[string]segMeta, nseg),
	}
	pf.scratch.New = func() any {
		buf := make([]byte, pf.slotBytes)
		return &buf
	}
	nextSlot := int64(0)
	for i := 0; i < nseg; i++ {
		name := b.str()
		first := int64(b.u32())
		num := int64(b.u32())
		cap := int(b.u32())
		if b.truncated() {
			return nil, &FormatError{File: "pages", Reason: "truncated segment table"}
		}
		if name == "" || first != nextSlot || cap <= 0 || cap > maxCap {
			return nil, &FormatError{File: "pages", Reason: fmt.Sprintf("invalid segment table entry %q", name)}
		}
		if _, dup := pf.segs[name]; dup {
			return nil, &FormatError{File: "pages", Reason: fmt.Sprintf("duplicate segment %q", name)}
		}
		pf.segs[name] = segMeta{firstSlot: first, numPages: num, capacity: cap}
		pf.order = append(pf.order, name)
		nextSlot += num
	}
	if b.remaining() != 0 {
		return nil, &FormatError{File: "pages", Reason: "trailing garbage in header"}
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("durable: open page file: %w", err)
	}
	if want := pf.slotBase + nextSlot*pf.slotBytes; st.Size() != want {
		return nil, &FormatError{File: "pages",
			Reason: fmt.Sprintf("size %d, want %d for %d slots", st.Size(), want, nextSlot)}
	}
	return pf, nil
}

// Segments returns the segment names in file order.
func (pf *PageFile) Segments() []string {
	out := make([]string, len(pf.order))
	copy(out, pf.order)
	return out
}

// Reads returns the number of physical slot reads issued so far — the
// independent witness that opening a dataset touched no pages.
func (pf *PageFile) Reads() int64 { return pf.reads.Load() }

// Close closes the underlying file. Segment sources keep serving already
// materialized pages but any further cold read fails.
func (pf *PageFile) Close() error {
	if pf.f == nil {
		return nil
	}
	err := pf.f.Close()
	pf.f = nil
	return err
}

// Segment returns a PageSource over the named segment. Pages materialize
// lazily on first read and are then served from memory.
func (pf *PageFile) Segment(name string) (*SegmentSource, error) {
	m, ok := pf.segs[name]
	if !ok {
		return nil, &FormatError{File: "pages", Reason: fmt.Sprintf("no segment %q", name)}
	}
	return &SegmentSource{
		pf:     pf,
		meta:   m,
		frames: make([]atomic.Pointer[pageFrame], m.numPages),
	}, nil
}

// pageFrame is one materialized page. The ids slice is immutable once the
// frame is published.
type pageFrame struct {
	ids []int32
}

// SegmentSource implements pager.PageSource over one segment of a page
// file. The steady state is allocation-free: a materialized page is one
// atomic pointer load away, and only the first (cold) read of each page
// allocates its frame. It is safe for concurrent use.
type SegmentSource struct {
	pf     *PageFile
	meta   segMeta
	frames []atomic.Pointer[pageFrame]
}

// NumPages returns the number of pages in the segment.
func (s *SegmentSource) NumPages() int { return int(s.meta.numPages) }

// ReadPage implements pager.PageSource. The returned slice is shared and
// must not be modified. A checksum mismatch on the cold read panics with a
// *CorruptError: the PageSource contract has no error channel, and a page
// that fails its CRC means the storage under a live dataset is damaged.
// A page outside [0, NumPages()) panics with a *FormatError.
func (s *SegmentSource) ReadPage(id pager.PageID) []int32 {
	if uint64(id) < uint64(len(s.frames)) {
		if f := s.frames[id].Load(); f != nil {
			return f.ids
		}
	}
	return s.readMiss(id)
}

// readMiss is the cold path, which also rejects an out-of-range page: one
// ReadAt into pooled scratch, checksum verification, and a compare-and-swap
// to publish the frame (losing the race just means serving the winner's
// identical frame).
func (s *SegmentSource) readMiss(id pager.PageID) []int32 {
	if int64(id) < 0 || int64(id) >= s.meta.numPages {
		panic(&FormatError{File: "pages", Reason: fmt.Sprintf("page %d out of range [0,%d)", id, s.meta.numPages)})
	}
	bufp := s.pf.scratch.Get().(*[]byte)
	buf := *bufp
	off := s.pf.slotBase + (s.meta.firstSlot+int64(id))*s.pf.slotBytes
	if _, err := s.pf.f.ReadAt(buf, off); err != nil {
		s.pf.scratch.Put(bufp)
		panic(&CorruptError{File: "pages", Offset: off, Reason: fmt.Sprintf("slot read failed: %v", err)})
	}
	s.pf.reads.Add(1)
	crc := le.Uint32(buf[0:4])
	count := int(le.Uint32(buf[4:8]))
	if count < 0 || count > s.meta.capacity || checksum(buf[4:8+4*count]) != crc {
		s.pf.scratch.Put(bufp)
		panic(&CorruptError{File: "pages", Offset: off, Reason: "slot checksum mismatch"})
	}
	ids := make([]int32, count)
	for i := range ids {
		ids[i] = int32(le.Uint32(buf[8+4*i:]))
	}
	s.pf.scratch.Put(bufp)
	f := &pageFrame{ids: ids}
	if !s.frames[id].CompareAndSwap(nil, f) {
		return s.frames[id].Load().ids
	}
	return ids
}
