package durable

import (
	"bytes"
	"testing"
)

// flipped returns a copy of b with every bit of b[off] inverted.
func flipped(b []byte, off int) []byte {
	out := append([]byte(nil), b...)
	out[off] ^= 0xff
	return out
}

// sealed returns body followed by its CRC-32C — a manifest or snapshot image
// whose whole-image checksum matches whatever damage body carries, so the
// decoder gets past the checksum to the check the damage is meant for.
func sealed(body []byte) []byte {
	var e enc
	e.b = append(e.b, body...)
	e.u32(checksum(body))
	return e.b
}

// FuzzWALDecode drives the WAL decoder with hostile input. The contract:
// never panic, never allocate proportionally to a hostile length field, and
// either succeed or fail with one of the package's typed errors. On success
// the reported valid end must lie inside the input past the header, and
// re-decoding the valid prefix must reproduce the same records (truncating at
// validEnd is exactly what OpenWAL does to a torn tail).
func FuzzWALDecode(f *testing.F) {
	// A clean two-record log with an epoch gap.
	clean := encodeWALImage(3, []Record{
		{Epoch: 4, Ops: []Op{{Kind: OpInsert, ID: 1, Box: box(0, 0, 0, 1)}, {Kind: OpDelete, ID: 0}}},
		{Epoch: 7, Ops: []Op{{Kind: OpUpdate, ID: 1, Box: box(2, 2, 2, 1)}}},
	})
	f.Add(clean)
	f.Add(clean[:len(clean)-5]) // torn tail
	f.Add(clean[:walHeaderLen]) // header only
	f.Add(clean[:3])            // truncated header
	f.Add([]byte("NSWL not really a wal"))
	flip := append([]byte(nil), clean...)
	flip[walHeaderLen+9] ^= 0x80 // bit-flipped payload
	f.Add(flip)
	hugeOps := append([]byte(nil), clean[:walHeaderLen]...)
	var e enc
	e.u32(0xffffffff) // frame claiming a 4GB payload
	e.u32(0)
	hugeOps = append(hugeOps, e.b...)
	f.Add(hugeOps)
	f.Add([]byte{})
	f.Add(flipped(clean, 0)) // bad magic
	// Frames whose CRC matches a payload the record decoder must refuse: a
	// random mutation never gets past the frame checksum to reach it.
	var short, manyOps, lenMismatch enc
	short.u32(7) // not even an epoch
	manyOps.u64(4)
	manyOps.u32(walMaxOps + 1)
	lenMismatch.u64(4)
	lenMismatch.u32(2) // two ops claimed, none present
	badKind := encodeWALImage(3, []Record{{Epoch: 4, Ops: []Op{{Kind: OpUpdate + 1, ID: 1}}}})
	for _, payload := range [][]byte{short.b, manyOps.b, lenMismatch.b} {
		var fr enc
		fr.b = append(fr.b, clean[:walHeaderLen]...)
		fr.u32(uint32(len(payload)))
		fr.u32(checksum(payload))
		f.Add(append(fr.b, payload...))
	}
	f.Add(badKind)
	f.Add(encodeWALImage(3, []Record{{Epoch: 4}, {Epoch: 4}})) // epoch out of sequence
	f.Add(clean[:walHeaderLen+3])                              // torn frame header

	f.Fuzz(func(t *testing.T, data []byte) {
		base, recs, end, err := DecodeWAL(data)
		if err != nil {
			if !typedError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if end < walHeaderLen || end > int64(len(data)) {
			t.Fatalf("valid end %d outside (header, %d]", end, len(data))
		}
		base2, recs2, end2, err2 := DecodeWAL(data[:end])
		if err2 != nil || base2 != base || end2 != end || len(recs2) != len(recs) {
			t.Fatalf("valid prefix does not re-decode: %v", err2)
		}
		prev := base
		for i, r := range recs {
			if r.Epoch <= prev {
				t.Fatalf("record %d epoch %d not after %d", i, r.Epoch, prev)
			}
			prev = r.Epoch
			for _, op := range r.Ops {
				if op.Kind > OpUpdate {
					t.Fatalf("record %d has invalid op kind %d", i, op.Kind)
				}
			}
		}
	})
}

// encodeWALImage renders a header plus records the way CreateWAL+Append
// would, without touching the filesystem — the fuzz seeds want clean images.
func encodeWALImage(baseEpoch uint64, recs []Record) []byte {
	var e enc
	e.u32(walMagic)
	e.u32(walVersion)
	e.u64(baseEpoch)
	for _, rec := range recs {
		var p enc
		p.u64(rec.Epoch)
		p.u32(uint32(len(rec.Ops)))
		for _, op := range rec.Ops {
			p.u8(op.Kind)
			p.i32(op.ID)
			p.f64(op.Box.Min.X)
			p.f64(op.Box.Min.Y)
			p.f64(op.Box.Min.Z)
			p.f64(op.Box.Max.X)
			p.f64(op.Box.Max.Y)
			p.f64(op.Box.Max.Z)
		}
		e.u32(uint32(len(p.b)))
		e.u32(checksum(p.b))
		e.b = append(e.b, p.b...)
	}
	return e.b
}

// FuzzManifestParse drives the manifest parser with hostile input: typed
// errors or a manifest whose invariants (non-empty file names) hold, never a
// panic.
func FuzzManifestParse(f *testing.F) {
	clean := EncodeManifest(Manifest{Epoch: 9, NextID: 77, Snapshot: "snap-9.nss", Pages: "pages-9.nsp", WAL: "wal-9.nsl"})
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // truncated tail
	f.Add(clean[:5])            // truncated header
	flip := append([]byte(nil), clean...)
	flip[10] ^= 0x04 // bit-flipped epoch
	f.Add(flip)
	f.Add(append(append([]byte(nil), clean...), 0xaa)) // trailing garbage
	f.Add([]byte("NSMF"))
	f.Add([]byte{})
	huge := append([]byte(nil), clean[:16]...)
	huge = append(huge, 0xff, 0xff) // string claiming 64KB
	f.Add(huge)
	// The same damage under a matching CRC.
	body := clean[:len(clean)-4]
	f.Add(sealed(flipped(body, 0)))                                                                 // bad magic
	f.Add(sealed(flipped(body, 4)))                                                                 // bad version
	f.Add(sealed(body[:len(body)-3]))                                                               // truncated body
	f.Add(sealed(append(append([]byte(nil), body...), 0xaa)))                                       // trailing garbage
	f.Add(EncodeManifest(Manifest{Epoch: 9, NextID: 77, Snapshot: "snap-9.nss", WAL: "wal-9.nsl"})) // empty file name

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if !typedError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if m.Snapshot == "" || m.Pages == "" || m.WAL == "" {
			t.Fatalf("parsed manifest with empty file name: %+v", m)
		}
		// A successful parse must re-encode to the same bytes (the format has
		// exactly one encoding per manifest), so silent misparses cannot hide.
		re := EncodeManifest(m)
		if len(re) != len(data) {
			t.Fatalf("re-encode is %d bytes, input %d", len(re), len(data))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("re-encode diverges at byte %d", i)
			}
		}
	})
}

// FuzzSnapshotDecode drives the snapshot decoder past its whole-image
// checksum, which catches every bit flip before decodeIndexRec, countField or
// the trailing-garbage check see it: the fuzzed bytes are the image *body*,
// and the harness seals them (sealed) so the decoder proceeds. The
// contract is the WAL's and the manifest's: never panic, never allocate from
// a hostile count, and fail only with the package's typed errors; a body that
// decodes must re-encode to the same image (the format has one encoding per
// record), so a silent misparse cannot hide.
func FuzzSnapshotDecode(f *testing.F) {
	sample := sampleSnapshot()
	clean := EncodeSnapshot(sample)
	body := clean[:len(clean)-4]
	f.Add(body)
	f.Add(body[:len(body)-5])                         // truncated inside the last index record
	f.Add(body[:18])                                  // truncated inside the header
	f.Add(append(append([]byte(nil), body...), 0xaa)) // trailing garbage
	f.Add([]byte{})
	f.Add(flipped(body, 0)) // bad magic
	f.Add(flipped(body, 4)) // bad version

	// Every count field on the way to and through the first index record,
	// claiming 4G elements.
	first := &sample.Indexes[0]
	itemCount := 4 + 4 + 8 + 4 + 4 + len(sample.Options)
	indexCount := itemCount + 4 + len(sample.Items)*(4+48)
	order := indexCount + 4 + 2 + len(first.Name)
	groups := order + 4 + 4*len(first.Order)
	meta := groups + 4 + 4*len(first.GroupLens)
	bounds := meta + 4 + 8*len(first.Meta)
	subs := bounds + 4 + 48*len(first.Bounds)
	for _, off := range []int{itemCount, indexCount, order, groups, meta, bounds, subs} {
		huge := append([]byte(nil), body...)
		copy(huge[off:], []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(huge)
	}

	// Subs nested past snapMaxDepth.
	deep := IndexRec{Name: "leaf"}
	for i := 0; i < snapMaxDepth+2; i++ {
		deep = IndexRec{Name: "sharded", Subs: []IndexRec{deep}}
	}
	nested := EncodeSnapshot(&SnapshotRec{Epoch: 1, Indexes: []IndexRec{deep}})
	f.Add(nested[:len(nested)-4])

	f.Fuzz(func(t *testing.T, body []byte) {
		data := sealed(body)
		rec, err := DecodeSnapshot(data)
		if err != nil {
			if !typedError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if re := EncodeSnapshot(rec); !bytes.Equal(re, data) {
			t.Fatalf("re-encode is %d bytes and differs from the %d-byte input", len(re), len(data))
		}
	})
}
