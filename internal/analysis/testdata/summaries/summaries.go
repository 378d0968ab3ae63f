// Fixture for antest.RunSummaries: each want-summary comment pins the
// interprocedural fact sheet the module computes for the function below it.
package sum

import (
	"os"
	"sync"
)

type Snapshot struct{ refs int }

func (s *Snapshot) acquire() { s.refs++ }

// The leaf disposer's own body carries no release fact — the Release/Close
// NAME is the call-site intrinsic that settles obligations.
// want-summary releases-recv=0
func (s *Snapshot) Release() { s.refs-- }

type wrapper struct{ snap *Snapshot }

// A differently named disposer settles via its summary: it releases a field
// of the receiver, so calling it settles the receiver's obligation.
// want-summary releases-recv=1
func (w *wrapper) shutdown() { w.snap.Release() }

type Dataset struct {
	mu  sync.Mutex //neurospatial:lock sum.state noio
	cur *Snapshot
}

// want-summary locks=sum.state
func (d *Dataset) Acquire() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur.acquire()
	return d.cur
}

// openPinned hands its caller a pin obligation: the Acquire result flows out.
// want-summary acquires=1
func openPinned(d *Dataset) (*Snapshot, error) {
	snap := d.Acquire()
	return snap, nil
}

// openChecked settles its own pin. Returning err must not read as returning
// the handle (the error-result holder regression).
// want-summary acquires=0
func openChecked(d *Dataset) error {
	snap, err := openPinned(d)
	if err != nil {
		return err
	}
	snap.Release()
	return nil
}

// want-summary releases-param=0
func drop(s *Snapshot, n int) {
	_ = n
	s.Release()
}

var pool = sync.Pool{New: func() any { return new([]byte) }}

// want-summary puts-param=0
func putBack(b *[]byte) { pool.Put(b) }

var sink *Snapshot

// want-summary retains-param=0
func stash(s *Snapshot) { sink = s }

// want-summary effects=io,write,fsync,rename
func spill(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(path, path+".done")
}

// syncDir exercises the read-only-handle heuristic: Sync on an os.Open
// handle is the directory-fsync idiom.
// want-summary effects=io,dirfsync
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

type WAL struct{ f *os.File }

// The WAL method's own summary carries its file-level effects…
// want-summary effects=io,write,fsync
func (w *WAL) Append(rec []byte) error {
	if _, err := w.f.Write(rec); err != nil {
		return err
	}
	return w.f.Sync()
}

// …while a caller sees the call-site intrinsic (walappend) plus the
// propagated subset (io, fsync — write and rename stay local).
// want-summary effects=io,fsync,walappend
func logRecord(w *WAL, rec []byte) error {
	return w.Append(rec)
}
