package expdb

import (
	"os"
	"path/filepath"
	"testing"

	"harmony/internal/history"
	"harmony/internal/search"
)

// mkExp builds a small experience for WAL tests.
func mkExp(label string, chars []float64, n int) *history.Experience {
	e := &history.Experience{
		Label:           label,
		Characteristics: chars,
		Direction:       search.Maximize,
	}
	for i := 0; i < n; i++ {
		e.AddRecord(search.Config{i, i * 2}, float64(100-i))
	}
	return e
}

func encodeRecords(t *testing.T, recs []record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = append(buf, frameOf(t, r)...)
	}
	return buf
}

func sampleRecords(n int) []record {
	recs := make([]record, n)
	for i := range recs {
		recs[i] = record{
			LSN: uint64(i + 1),
			Key: "app/spec",
			Exp: mkExp("w", []float64{float64(i), 1 - float64(i)/10}, 3),
		}
	}
	return recs
}

func TestWALRoundTrip(t *testing.T) {
	want := sampleRecords(5)
	buf := encodeRecords(t, want)
	got, validLen, err := decodeFrames(buf)
	if err != nil {
		t.Fatalf("clean stream decoded with error: %v", err)
	}
	if validLen != len(buf) {
		t.Fatalf("validLen = %d, want %d", validLen, len(buf))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Key != want[i].Key {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
		if len(got[i].Exp.Records) != len(want[i].Exp.Records) {
			t.Errorf("record %d has %d measurements, want %d",
				i, len(got[i].Exp.Records), len(want[i].Exp.Records))
		}
	}
}

func TestWALTornTailRecoversPrefix(t *testing.T) {
	recs := sampleRecords(4)
	full := encodeRecords(t, recs)
	// The prefix covering the first 3 records is the safe truncation point.
	prefix3 := len(encodeRecords(t, recs[:3]))

	for cut := prefix3 + 1; cut < len(full); cut += 7 {
		got, validLen, err := decodeFrames(full[:cut])
		if err == nil {
			t.Fatalf("cut=%d: torn tail decoded without error", cut)
		}
		if len(got) != 3 {
			t.Fatalf("cut=%d: recovered %d records, want 3", cut, len(got))
		}
		if validLen != prefix3 {
			t.Fatalf("cut=%d: validLen = %d, want %d", cut, validLen, prefix3)
		}
	}
}

func TestWALCRCMismatchStopsAtCorruption(t *testing.T) {
	recs := sampleRecords(3)
	buf := encodeRecords(t, recs)
	prefix2 := len(encodeRecords(t, recs[:2]))
	// Flip a payload byte inside the third record.
	buf[prefix2+frameHeaderLen+4] ^= 0xff

	got, validLen, err := decodeFrames(buf)
	if err == nil {
		t.Fatal("CRC mismatch decoded without error")
	}
	if len(got) != 2 || validLen != prefix2 {
		t.Fatalf("recovered %d records validLen %d, want 2 records validLen %d",
			len(got), validLen, prefix2)
	}
}

func TestWALGarbageHeaderStopsCleanly(t *testing.T) {
	recs := sampleRecords(2)
	buf := encodeRecords(t, recs)
	good := len(buf)
	buf = append(buf, []byte("this is not a frame header at all\n")...)

	got, validLen, err := decodeFrames(buf)
	if err == nil {
		t.Fatal("garbage tail decoded without error")
	}
	if len(got) != 2 || validLen != good {
		t.Fatalf("recovered %d records validLen %d, want 2 and %d", len(got), validLen, good)
	}
}

func TestWALHugeLengthClaimRejected(t *testing.T) {
	// A frame claiming 0xffffffff bytes must not trigger a giant allocation.
	buf := []byte("ffffffff 00000000 ")
	got, validLen, err := decodeFrames(buf)
	if err == nil || len(got) != 0 || validLen != 0 {
		t.Fatalf("huge length: got %d records, validLen %d, err %v", len(got), validLen, err)
	}
}

func TestWALAppendAssignsMonotoneLSNs(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(filepath.Join(dir, walName), SyncAlways, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lsn, err := w.append("k", mkExp("w", []float64{1}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(7+i) {
			t.Fatalf("append %d assigned LSN %d, want %d", i, lsn, 7+i)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, derr := decodeFrames(b)
	if derr != nil || len(recs) != 3 || recs[0].LSN != 7 || recs[2].LSN != 9 {
		t.Fatalf("decoded %v (err %v)", recs, derr)
	}
}

func TestWALSyncNonePersistsOnFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	w, err := openWAL(path, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append("k", mkExp("w", []float64{1}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if recs, _, derr := decodeFrames(b); derr != nil || len(recs) != 1 {
		t.Fatalf("after flush: %d records, err %v", len(recs), derr)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "none": SyncNone} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}
