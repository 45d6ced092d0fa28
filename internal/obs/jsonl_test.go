package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/search"
)

// TestJSONLRoundTrip writes events through the sink and reads them back
// with ReadEvents: the offline-analysis loop must be lossless.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	in := []search.Event{
		{Session: "s1", Time: time.Unix(10, 0).UTC(), Type: search.EventEval, Index: 0, Config: search.Config{3, 4}, Perf: 12.5},
		{Session: "s1", Time: time.Unix(11, 0).UTC(), Type: search.EventEval, Index: -1, Cached: true, Perf: 12.5},
		{Session: "s1", Time: time.Unix(12, 0).UTC(), Type: search.EventSimplex, Op: search.OpReflect, Iter: 1, Note: "accepted"},
		{Session: "s1", Time: time.Unix(13, 0).UTC(), Type: search.EventConverge, Op: "reltol", Iter: 9},
	}
	for _, e := range in {
		j.Emit(e)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Type != in[i].Type || out[i].Op != in[i].Op ||
			out[i].Index != in[i].Index || out[i].Perf != in[i].Perf ||
			out[i].Cached != in[i].Cached || out[i].Session != in[i].Session ||
			!out[i].Config.Equal(in[i].Config) {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestJSONLConcurrentEmit: one sink shared by several stamped sessions (the
// server's -trace-out) must interleave lines whole, never torn. Run under
// -race this also gates the locking.
func TestJSONLConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	var wg sync.WaitGroup
	const sessions, events = 8, 50
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tr := search.StampSession(j, strings.Repeat("x", s+1))
			for i := 0; i < events; i++ {
				tr.Emit(search.Event{Type: search.EventEval, Index: i, Perf: float64(i)})
			}
		}(s)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("torn or malformed line: %v", err)
	}
	if len(got) != sessions*events {
		t.Errorf("read %d events, want %d", len(got), sessions*events)
	}
	perSession := map[string]int{}
	for _, e := range got {
		perSession[e.Session]++
	}
	if len(perSession) != sessions {
		t.Errorf("distinct sessions = %d, want %d", len(perSession), sessions)
	}
	for s, n := range perSession {
		if n != events {
			t.Errorf("session %q has %d events, want %d", s, n, events)
		}
	}
}

// TestOpenJSONL: the file path sink creates, truncates and closes.
func TestOpenJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	j, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(search.Event{Type: search.EventPhase, Op: "live"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Op != "live" {
		t.Errorf("events = %+v", events)
	}
}

// TestNilJSONL: a nil sink drops events without panicking, so callers wire
// it unconditionally.
func TestNilJSONL(t *testing.T) {
	var j *JSONL
	j.Emit(search.Event{Type: search.EventEval})
	if err := j.Err(); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
}

// TestTrajectoryJSONL pins the reduction from the full event stream to the
// per-iteration records hbench -json emits: cache hits, phase markers and simplex
// bookkeeping fold away; best is monotone under the direction; elapsed uses
// the injected clock.
func TestTrajectoryJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrajectoryJSONL(&buf, search.Maximize)
	clock := time.Unix(100, 0)
	tr.now = func() time.Time {
		clock = clock.Add(250 * time.Millisecond)
		return clock
	}

	tr.Emit(search.Event{Type: search.EventPhase, Perf: 999})             // folded away
	tr.Emit(search.Event{Type: search.EventEval, Perf: 10})               // iter 1, best 10
	tr.Emit(search.Event{Type: search.EventEval, Perf: 8})                // iter 2, best 10
	tr.Emit(search.Event{Type: search.EventEval, Cached: true, Perf: 50}) // folded away
	tr.Emit(search.Event{Type: search.EventSimplex, Op: search.OpExpand}) // folded away
	tr.Emit(search.Event{Type: search.EventEval, Perf: 30})               // iter 3, best 30

	raw := append([]byte(nil), buf.Bytes()...)
	var recs []TrajectoryRecord
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r TrajectoryRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	want := []TrajectoryRecord{
		{Iter: 1, Perf: 10, Best: 10},
		{Iter: 2, Perf: 8, Best: 10},
		{Iter: 3, Perf: 30, Best: 30},
	}
	if len(recs) != len(want) {
		t.Fatalf("records = %+v, want %d entries", recs, len(want))
	}
	for i, w := range want {
		if recs[i].Iter != w.Iter || recs[i].Perf != w.Perf || recs[i].Best != w.Best {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], w)
		}
		if recs[i].ElapsedMS < 0 {
			t.Errorf("record %d elapsed = %v", i, recs[i].ElapsedMS)
		}
	}
	// The fake clock advances 250ms per now() call: first record reads the
	// start then its own stamp.
	if recs[0].ElapsedMS != 250 {
		t.Errorf("first elapsed = %v ms, want 250", recs[0].ElapsedMS)
	}
	// Exact-mode records carry exactly the historical field set: the
	// estimated/fidelity extensions must stay off the wire.
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("exact-mode record has extra fields: %s", line)
		}
	}
}

// TestTrajectoryJSONLFidelity pins the multi-fidelity reduction: partial
// measurements carry their fidelity, estimated answers their flag, and the
// best-so-far series never lets a noisy reduced-fidelity perf or a gate
// estimate beat (or outlive) a real full-fidelity truth.
func TestTrajectoryJSONLFidelity(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrajectoryJSONL(&buf, search.Maximize)
	tr.now = func() time.Time { return time.Unix(100, 0) }

	tr.Emit(search.Event{Type: search.EventEval, Perf: 40, Fidelity: 0.25})  // low-fi stand-in best
	tr.Emit(search.Event{Type: search.EventEval, Perf: 10})                  // first truth evicts it
	tr.Emit(search.Event{Type: search.EventEval, Perf: 99, Fidelity: 0.5})   // noisy outlier: not best
	tr.Emit(search.Event{Type: search.EventEval, Perf: 30})                  // truth: best
	tr.Emit(search.Event{Type: search.EventEval, Perf: 35, Estimated: true}) // gate estimate: not best

	var recs []TrajectoryRecord
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r TrajectoryRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	want := []TrajectoryRecord{
		{Iter: 1, Perf: 40, Best: 40, Fidelity: 0.25},
		{Iter: 2, Perf: 10, Best: 10},
		{Iter: 3, Perf: 99, Best: 10, Fidelity: 0.5},
		{Iter: 4, Perf: 30, Best: 30},
		{Iter: 5, Perf: 35, Best: 30, Estimated: true},
	}
	if len(recs) != len(want) {
		t.Fatalf("records = %+v, want %d entries", recs, len(want))
	}
	for i, w := range want {
		got := recs[i]
		got.ElapsedMS = 0
		if got != w {
			t.Errorf("record %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestReadEventsMalformedLine: a broken line fails with its line number and
// returns the good prefix.
func TestReadEventsMalformedLine(t *testing.T) {
	in := `{"type":"eval","perf":1}
not json
`
	events, err := ReadEvents(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line number", err)
	}
	if len(events) != 1 {
		t.Errorf("good prefix = %d events, want 1", len(events))
	}
}
