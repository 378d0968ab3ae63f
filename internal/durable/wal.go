package durable

import (
	"fmt"
	"os"

	"neurospatial/internal/geom"
)

// Op kinds recorded in the WAL. They mirror the engine's transaction ops;
// the engine maps its internal kind onto these when logging a batch.
const (
	OpInsert uint8 = iota
	OpDelete
	OpUpdate
)

// Op is one logged mutation: kind, element ID, and (for insert/update) the
// element's bounding box.
type Op struct {
	Kind uint8
	ID   int32
	Box  geom.AABB
}

// Record is one logged commit batch: the epoch the batch published as, and
// its ops in commit order.
type Record struct {
	Epoch uint64
	Ops   []Op
}

// WAL format:
//
//	header   magic u32, version u32, baseEpoch u64
//	record*  len u32, crc u32 (CRC-32C of payload), payload
//	payload  epoch u64, nops u32, then nops × (kind u8, id i32, box 6×f64)
//
// A record that extends past end-of-file is a torn tail from a crash
// mid-append: it is truncated on open, never replayed. Any other damage — a
// checksum mismatch, a structurally invalid payload with bytes still
// following — is unrecoverable corruption and surfaces as a typed error.
const (
	walHeaderLen = 16
	walOpLen     = 1 + 4 + 6*8
	// walMaxOps bounds a record's claimed op count to keep hostile input
	// from driving huge allocations before the checksum is even verified.
	walMaxOps = 1 << 24
)

// WAL is an open write-ahead log positioned for appends.
type WAL struct {
	f         *os.File
	baseEpoch uint64
	lastEpoch uint64 // epoch of the last record on disk (baseEpoch when none)
	buf       []byte // append scratch, reused across batches
}

// CreateWAL writes a fresh, empty log whose replay starts after baseEpoch,
// fsyncs it, and returns it open for appends.
func CreateWAL(path string, baseEpoch uint64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: create wal: %w", err)
	}
	var e enc
	e.u32(walMagic)
	e.u32(walVersion)
	e.u64(baseEpoch)
	if _, err := f.Write(e.b); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: create wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: create wal: %w", err)
	}
	return &WAL{f: f, baseEpoch: baseEpoch, lastEpoch: baseEpoch}, nil
}

// OpenWAL reads the log at path, decodes every durable record, truncates a
// torn tail if one exists, and returns the log open for appends along with
// the records to replay (in epoch order).
func OpenWAL(path string) (*WAL, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open wal: %w", err)
	}
	baseEpoch, recs, tornOff, derr := DecodeWAL(data)
	if derr != nil {
		return nil, nil, derr
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open wal: %w", err)
	}
	if tornOff < int64(len(data)) {
		// Drop the torn tail so the next append starts on a record boundary.
		if err := f.Truncate(tornOff); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("durable: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("durable: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(tornOff, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: open wal: %w", err)
	}
	w := &WAL{f: f, baseEpoch: baseEpoch, lastEpoch: baseEpoch}
	if n := len(recs); n > 0 {
		w.lastEpoch = recs[n-1].Epoch
	}
	return w, recs, nil
}

// DecodeWAL parses a whole WAL image: header, then records until the torn
// tail or end of input. It returns the base epoch, the decoded records, and
// the offset where valid data ends (== len(data) when the file is clean; the
// truncation point of a torn tail otherwise). It is pure — the fuzz target
// FuzzWALDecode drives it with hostile input, and it must return typed
// errors, never panic.
func DecodeWAL(data []byte) (baseEpoch uint64, recs []Record, validEnd int64, err error) {
	if len(data) < walHeaderLen {
		return 0, nil, 0, &FormatError{File: "wal", Reason: "truncated header"}
	}
	h := &dec{b: data[:walHeaderLen], file: "wal"}
	if h.u32() != walMagic {
		return 0, nil, 0, &FormatError{File: "wal", Reason: "bad magic"}
	}
	if v := h.u32(); v != walVersion {
		return 0, nil, 0, &FormatError{File: "wal", Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	baseEpoch = h.u64()
	off := int64(walHeaderLen)
	rest := data[walHeaderLen:]
	prevEpoch := baseEpoch
	for len(rest) > 0 {
		if len(rest) < 8 {
			return baseEpoch, recs, off, nil // torn frame header
		}
		plen := int64(le.Uint32(rest[0:4]))
		crc := le.Uint32(rest[4:8])
		if plen > int64(len(rest))-8 {
			return baseEpoch, recs, off, nil // torn payload
		}
		payload := rest[8 : 8+plen]
		if checksum(payload) != crc {
			return 0, nil, 0, &CorruptError{File: "wal", Offset: off, Reason: "record checksum mismatch"}
		}
		rec, perr := decodeWALPayload(payload, off)
		if perr != nil {
			return 0, nil, 0, perr
		}
		// Epochs must strictly increase but need not be consecutive: the
		// engine bumps the dataset epoch on (unlogged) compactions between
		// logged commits, so gaps are normal; regressions are corruption.
		if rec.Epoch <= prevEpoch {
			return 0, nil, 0, &CorruptError{File: "wal", Offset: off,
				Reason: fmt.Sprintf("epoch %d out of sequence after %d", rec.Epoch, prevEpoch)}
		}
		prevEpoch = rec.Epoch
		recs = append(recs, rec)
		rest = rest[8+plen:]
		off += 8 + plen
	}
	return baseEpoch, recs, off, nil
}

func decodeWALPayload(payload []byte, off int64) (Record, error) {
	d := &dec{b: payload, file: "wal"}
	epoch := d.u64()
	nops := int64(d.u32())
	if d.truncated() || nops > walMaxOps {
		return Record{}, &CorruptError{File: "wal", Offset: off, Reason: "invalid record payload"}
	}
	if int64(len(payload)) != 12+nops*walOpLen {
		return Record{}, &CorruptError{File: "wal", Offset: off, Reason: "record payload length mismatch"}
	}
	rec := Record{Epoch: epoch, Ops: make([]Op, nops)}
	for i := range rec.Ops {
		op := &rec.Ops[i]
		op.Kind = d.u8()
		op.ID = d.i32()
		op.Box.Min = geom.Vec{X: d.f64(), Y: d.f64(), Z: d.f64()}
		op.Box.Max = geom.Vec{X: d.f64(), Y: d.f64(), Z: d.f64()}
		if op.Kind > OpUpdate {
			return Record{}, &CorruptError{File: "wal", Offset: off,
				Reason: fmt.Sprintf("unknown op kind %d", op.Kind)}
		}
	}
	return rec, nil
}

// Append logs one commit batch and fsyncs it. On return the batch is
// durable; the engine publishes the in-memory epoch only after Append
// succeeds. The record's epoch must be greater than the last logged one
// (gaps are fine — compactions bump epochs without being logged).
func (w *WAL) Append(rec Record) error {
	if rec.Epoch <= w.lastEpoch {
		return fmt.Errorf("durable: wal append epoch %d out of sequence after %d", rec.Epoch, w.lastEpoch)
	}
	if shouldCrash(CrashWALAppend) {
		crashNow(CrashWALAppend)
	}
	e := enc{b: w.buf[:0]}
	e.u64(rec.Epoch)
	e.u32(uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		e.u8(op.Kind)
		e.i32(op.ID)
		e.f64(op.Box.Min.X)
		e.f64(op.Box.Min.Y)
		e.f64(op.Box.Min.Z)
		e.f64(op.Box.Max.X)
		e.f64(op.Box.Max.Y)
		e.f64(op.Box.Max.Z)
	}
	payload := e.b
	var frame enc
	frame.u32(uint32(len(payload)))
	frame.u32(checksum(payload))
	frame.b = append(frame.b, payload...)
	w.buf = payload
	if shouldCrash(CrashWALTorn) {
		// Sever mid-write: flush only a prefix of the frame, fsync so the
		// torn bytes are genuinely on disk, and die.
		w.f.Write(frame.b[:len(frame.b)/2])
		w.f.Sync()
		crashNow(CrashWALTorn)
	}
	if _, err := w.f.Write(frame.b); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	if shouldCrash(CrashWALWritten) {
		crashNow(CrashWALWritten)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	if shouldCrash(CrashWALSynced) {
		crashNow(CrashWALSynced)
	}
	w.lastEpoch = rec.Epoch
	return nil
}

// BaseEpoch returns the epoch the log's replay starts after.
func (w *WAL) BaseEpoch() uint64 { return w.baseEpoch }

// LastEpoch returns the epoch of the last durable record (BaseEpoch when the
// log is empty).
func (w *WAL) LastEpoch() uint64 { return w.lastEpoch }

// Close closes the underlying file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
