package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"harmony/internal/search"
)

// JSONL is a line-delimited JSON sink for search.Tracer events. One sink
// may be shared by many concurrent sessions (the server's -trace-out file):
// Emit serializes writes, and the session ID stamped on each event (the
// server's session streams do it, search.StampSession does it for other
// tracers) keeps the interleaved stream demultiplexable. A nil *JSONL drops every event, so callers can
// wire it unconditionally.
type JSONL struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	err    error
}

// NewJSONL wraps an io.Writer as a JSONL event sink.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// OpenJSONL creates (truncating) the file at path as a JSONL event sink;
// "-" means stdout.
func OpenJSONL(path string) (*JSONL, error) {
	if path == "-" {
		return NewJSONL(os.Stdout), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace out: %w", err)
	}
	return &JSONL{w: bufio.NewWriter(f), closer: f}, nil
}

// Emit implements search.Tracer: one JSON object per line, flushed per
// event so a crash loses at most the event being written.
func (j *JSONL) Emit(e search.Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.err = j.w.Flush()
}

// Err returns the first write/encode error (the sink goes quiet after one).
func (j *JSONL) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the underlying file (no-op for plain writers and
// nil sinks).
func (j *JSONL) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.closer != nil {
		if err := j.closer.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.closer = nil
	}
	return j.err
}

// ReadEvents decodes a JSONL event stream (the offline-analysis half of the
// sink). Blank lines are skipped; a malformed line fails with its line
// number.
func ReadEvents(r io.Reader) ([]search.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var out []search.Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e search.Event
		if err := json.Unmarshal(b, &e); err != nil {
			return out, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// TrajectoryRecord is one per-iteration line of a tuning trajectory: the
// paper's convergence-time series (hbench -json emits these).
type TrajectoryRecord struct {
	// Iter is the 1-based exploration ordinal (real measurements only).
	Iter int `json:"iter"`
	// Perf is the performance of this exploration.
	Perf float64 `json:"perf"`
	// Best is the best performance seen so far.
	Best float64 `json:"best"`
	// ElapsedMS is wall-clock milliseconds since the trajectory started.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Estimated marks an exploration answered by the estimation gate
	// instead of a measurement. Omitted when false, so exact-mode
	// trajectories keep their historical field set.
	Estimated bool `json:"estimated,omitempty"`
	// Fidelity is the measurement fidelity when partial (f ∈ (0, 1));
	// omitted for full measurements.
	Fidelity float64 `json:"fidelity,omitempty"`
}

// TrajectoryJSONL adapts a writer into a search.Tracer that reduces the
// event stream to per-iteration TrajectoryRecord lines: cache hits, seeds
// and simplex bookkeeping are folded away, leaving exactly the (iter, best,
// elapsed) series that hbench -json emits.
type TrajectoryJSONL struct {
	mu    sync.Mutex
	enc   *json.Encoder
	dir   search.Direction
	start time.Time
	iter  int
	best  float64
	// haveFull marks that best holds a real full-fidelity truth; until one
	// exists, noisy reduced-fidelity perfs and gate estimates may stand
	// in, but the first real measurement evicts them and neither can ever
	// beat one afterwards (mirrors search.Trace.Best and BestTrajectory).
	haveFull bool
	now      func() time.Time // test seam
}

// NewTrajectoryJSONL returns a trajectory sink writing to w, folding
// best-so-far under dir.
func NewTrajectoryJSONL(w io.Writer, dir search.Direction) *TrajectoryJSONL {
	return &TrajectoryJSONL{enc: json.NewEncoder(w), dir: dir, now: time.Now}
}

// Emit implements search.Tracer.
func (t *TrajectoryJSONL) Emit(e search.Event) {
	if t == nil || e.Type != search.EventEval || e.Cached {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.iter == 0 {
		t.start = t.now()
	}
	full := search.FullFidelity(e.Fidelity)
	truth := full && !e.Estimated
	switch {
	case truth && !t.haveFull:
		t.best, t.haveFull = e.Perf, true
	case truth && t.dir.Better(e.Perf, t.best):
		t.best = e.Perf
	case !truth && !t.haveFull && (t.iter == 0 || t.dir.Better(e.Perf, t.best)):
		t.best = e.Perf
	}
	t.iter++
	rec := TrajectoryRecord{
		Iter:      t.iter,
		Perf:      e.Perf,
		Best:      t.best,
		ElapsedMS: float64(t.now().Sub(t.start)) / float64(time.Millisecond),
		Estimated: e.Estimated,
	}
	if !full {
		rec.Fidelity = e.Fidelity
	}
	t.enc.Encode(rec) //nolint:errcheck // best-effort sink
}
