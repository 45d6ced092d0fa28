package expdb

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzWALDecode is the fuzz gate for the frame decoder both files of a
// data directory go through (`go test -fuzz=FuzzWALDecode ./internal/expdb`;
// the seeded corpus in testdata/fuzz/FuzzWALDecode is checked in and always
// runs as part of the normal test suite — its streams carry JSON-era
// payloads, which now decode as records in an unknown format).
// Properties, for arbitrary bytes:
//
//  1. never panic — garbage, truncated frames and CRC mismatches are
//     returned as errors, not crashes;
//  2. validLen is a safe truncation point: re-decoding data[:validLen]
//     yields exactly the same records with no error — i.e. every record
//     before the corruption point is recovered and nothing after it is
//     invented;
//  3. the log stays appendable after truncation: a fresh valid frame
//     appended at validLen decodes as one more record.
func FuzzWALDecode(f *testing.F) {
	// Seeds beyond the checked-in corpus: boundary shapes and binary
	// payloads.
	f.Add([]byte{})
	f.Add([]byte("00000000 00000000 \n"))
	f.Add([]byte("ffffffff ffffffff ")) // absurd length claim
	f.Add(bytes.Repeat([]byte{0}, 64))

	valid := frameOf(f, record{LSN: 3, Key: "app/x", Exp: mkExp("w", []float64{0.5}, 2)})
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid[:len(valid)/2]...)) // torn tail
	// A snapshot image: horizon, then experiences with every odd value.
	snap := append(frameOf(f, record{LSN: 9}), frameOf(f, record{Key: "app/x", Exp: oddExperience()})...)
	f.Add(snap)
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)-5] ^= 0x40 // CRC mismatch in the last frame
	f.Add(flipped)
	f.Add(append(valid, rawFrame([]byte(`{"lsn":4,"key":"app/x"}`))...)) // JSON after binary

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, derr := decodeFrames(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d out of range [0, %d]", validLen, len(data))
		}
		if derr == nil && validLen != len(data) {
			t.Fatalf("clean decode but validLen %d != len %d", validLen, len(data))
		}

		// Property 2: the valid prefix re-decodes identically and cleanly.
		again, againLen, aerr := decodeFrames(data[:validLen])
		if aerr != nil {
			t.Fatalf("re-decoding the valid prefix failed: %v", aerr)
		}
		if againLen != validLen || len(again) != len(recs) {
			t.Fatalf("prefix re-decode: %d records/%d bytes, want %d/%d",
				len(again), againLen, len(recs), validLen)
		}
		for i := range recs {
			if again[i].LSN != recs[i].LSN || again[i].Key != recs[i].Key {
				t.Fatalf("record %d differs on re-decode", i)
			}
		}

		// Property 3: the truncation point accepts fresh appends.
		ext := append(append([]byte(nil), data[:validLen]...), valid...)
		more, _, merr := decodeFrames(ext)
		if merr != nil {
			t.Fatalf("append after truncation failed to decode: %v", merr)
		}
		if len(more) != len(recs)+1 {
			t.Fatalf("append after truncation: %d records, want %d", len(more), len(recs)+1)
		}
	})
}

// FuzzRecordDecode is the fuzz gate for the record payload decoder
// (`go test -fuzz=FuzzRecordDecode ./internal/expdb`). Properties, for
// arbitrary bytes:
//
//  1. never panic;
//  2. allocate at most a fixed multiple of the payload's length, whatever
//     counts the payload declares — a corrupt count cannot make recovery
//     allocate gigabytes;
//  3. any payload that decodes re-encodes to exactly the same bytes: the
//     decoder accepts only the canonical encoding, so a record has one
//     byte image and snapshots of identical stores are identical;
//  4. the validating mode Open walks a snapshot with accepts exactly the
//     payloads the building mode accepts, and reports the same LSN, key
//     and count: a frame Open lets through always decodes on first use.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(`{"lsn":1,"key":"app/x"}`))
	f.Add(appendPayload(nil, record{LSN: 9}))
	f.Add(appendPayload(nil, record{LSN: 1, Key: "app/x", Exp: oddExperience()}))
	f.Add(appendPayload(nil, record{LSN: 2, Key: "app/spec", Exp: mkExp("w", []float64{0.5, 0.5}, 3)}))
	// Declared counts far beyond the bytes that follow.
	f.Add([]byte{formatExperience, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{formatExperience, 1, 0, 0, 0, 0, 0xff, 0xff, 0x03, 0xff, 0xff, 0x03})
	f.Add([]byte{formatHorizon, 0x80, 0x00}) // overlong varint
	f.Add(overlongValue(f, "app/x"))

	f.Fuzz(func(t *testing.T, p []byte) {
		rec, alloc, err := decodeMeasured(p)
		if bound := decodeAllocBound(len(p)); alloc > bound {
			// Another goroutine may have allocated inside the window; an
			// excess the decoder caused repeats.
			if _, again, _ := decodeMeasured(p); again > bound {
				t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(p), again, bound)
			}
		}
		v := decoder{}
		vrec, verr := v.decode(p)
		if (verr == nil) != (err == nil) {
			t.Fatalf("validating decode err %v, building decode err %v", verr, err)
		}
		if err != nil {
			return
		}
		if vrec.LSN != rec.LSN || vrec.Key != rec.Key || vrec.Count != rec.Count || vrec.Exp != nil {
			t.Fatalf("validating decode %+v, building decode %+v", vrec, rec)
		}
		if rec.Exp != nil && rec.Count != uint64(len(rec.Exp.Records)) {
			t.Fatalf("experience with %d records reports count %d", len(rec.Exp.Records), rec.Count)
		}
		if again := appendPayload(nil, rec); !bytes.Equal(again, p) {
			t.Fatalf("decoded payload re-encodes differently:\n in  %x\n out %x", p, again)
		}
	})
}

// decodeAllocBound is the most a payload of n bytes may make the decoder
// allocate. The worst legitimate case is a configuration value: one byte of
// payload, one 8-byte int decoded; a failing count may add one more slice
// of the same order before the decoder notices.
func decodeAllocBound(n int) uint64 { return uint64(24*n + 1024) }

func decodeMeasured(p []byte) (record, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := decoder{build: true}
	rec, err := d.decode(p)
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc, err
}
