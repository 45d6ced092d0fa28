package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func tracerSpace(t *testing.T) *Space {
	t.Helper()
	return MustSpace(
		Param{Name: "a", Min: 0, Max: 50, Step: 1, Default: 0},
		Param{Name: "b", Min: 0, Max: 50, Step: 1, Default: 0},
	)
}

// slowObjective jitters measurement latency inversely with the input so
// later batch entries finish before earlier ones: the commit order (and so
// the event order) must still follow input order.
func slowObjective(mu *sync.Mutex, calls *int) Objective {
	return ObjectiveFunc(func(cfg Config) float64 {
		mu.Lock()
		*calls++
		mu.Unlock()
		time.Sleep(time.Duration(50-cfg[0]) * 200 * time.Microsecond)
		return float64(cfg[0]*100 + cfg[1])
	})
}

// TestTracerOrderingUnderParallel pins the determinism guarantee: for the
// same batch, the tracer sees identical event sequences whether the
// evaluator runs sequentially or with many workers — completion order must
// never leak into the stream.
func TestTracerOrderingUnderParallel(t *testing.T) {
	pts := [][]float64{
		{40, 1}, {2, 2}, {30, 3}, {4, 4}, {20, 5}, {6, 6}, {10, 7}, {8, 8},
		{40, 1}, // duplicate: measured once
	}

	run := func(workers int) []Event {
		var mu sync.Mutex
		calls := 0
		ev := NewEvaluator(tracerSpace(t), slowObjective(&mu, &calls))
		var tr CollectTracer
		ev.Tracer = &tr
		if _, _, err := ev.EvalBatch(pts, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls != 8 {
			t.Fatalf("workers=%d: %d measurements, want 8 (dup must be coalesced)", workers, calls)
		}
		return tr.Events
	}

	seq := run(1)
	par := run(8)

	// Strip times, then compare the streams event by event. The sequential
	// path interleaves the duplicate's cache hit differently (it resolves it
	// at position 9 rather than during the scan), so compare the fresh
	// measurements — the trajectory-bearing events — exactly, and the cache
	// hits as a set.
	fresh := func(events []Event) []Event {
		var out []Event
		for _, e := range events {
			if e.Type == EventEval && !e.Cached {
				out = append(out, e)
			}
		}
		return out
	}
	fs, fp := fresh(seq), fresh(par)
	if len(fs) != 8 || len(fp) != 8 {
		t.Fatalf("fresh events: seq=%d par=%d, want 8", len(fs), len(fp))
	}
	for i := range fs {
		if fs[i].Index != i || fp[i].Index != i {
			t.Errorf("event %d: indices seq=%d par=%d, want %d", i, fs[i].Index, fp[i].Index, i)
		}
		if !fs[i].Config.Equal(fp[i].Config) || fs[i].Perf != fp[i].Perf {
			t.Errorf("event %d diverged: seq={%v %g} par={%v %g}",
				i, fs[i].Config, fs[i].Perf, fp[i].Config, fp[i].Perf)
		}
	}

	// Identical best-performance trajectories — the acceptance property the
	// JSONL traces rely on.
	ts, tp := BestTrajectory(seq, Maximize), BestTrajectory(par, Maximize)
	if len(ts) != len(tp) {
		t.Fatalf("trajectory lengths: seq=%d par=%d", len(ts), len(tp))
	}
	for i := range ts {
		if ts[i] != tp[i] {
			t.Errorf("trajectory[%d]: seq=%g par=%g", i, ts[i], tp[i])
		}
	}
}

// TestTracerEvaluatorEvents pins the per-site event shapes: fresh
// measurement and cache hit.
func TestTracerEvaluatorEvents(t *testing.T) {
	ev := NewEvaluator(tracerSpace(t), ObjectiveFunc(func(cfg Config) float64 {
		return float64(cfg[0])
	}))
	var tr CollectTracer
	ev.Tracer = &tr

	if _, _, err := ev.EvalConfig(Config{5, 5}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.EvalConfig(Config{5, 5}); err != nil { // cache hit
		t.Fatal(err)
	}

	if len(tr.Events) != 2 {
		t.Fatalf("events = %+v, want 2", tr.Events)
	}
	fresh, hit := tr.Events[0], tr.Events[1]
	if fresh.Type != EventEval || fresh.Cached || fresh.Index != 0 || fresh.Perf != 5 {
		t.Errorf("fresh event = %+v", fresh)
	}
	if hit.Type != EventEval || !hit.Cached || hit.Index != -1 || hit.Perf != 5 {
		t.Errorf("cache-hit event = %+v", hit)
	}
	for _, e := range tr.Events {
		if e.Time.IsZero() {
			t.Errorf("event %+v missing timestamp", e)
		}
	}
}

// TestNelderMeadEmitsSimplexAndConvergeEvents: a full kernel run produces
// simplex operations with known names and exactly one convergence decision
// per (restart-free) run.
func TestNelderMeadEmitsSimplexAndConvergeEvents(t *testing.T) {
	space := tracerSpace(t)
	obj := ObjectiveFunc(func(cfg Config) float64 {
		dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
		return -(dx*dx + dy*dy)
	})
	var tr CollectTracer
	res, err := NelderMead(space, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 200, Init: DistributedInit{}, Tracer: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}

	known := map[string]bool{
		OpReflect: true, OpExpand: true, OpContractOut: true,
		OpContractIn: true, OpShrink: true,
	}
	var simplex, converge int
	for _, e := range tr.Events {
		switch e.Type {
		case EventSimplex:
			simplex++
			if !known[e.Op] {
				t.Errorf("unknown simplex op %q", e.Op)
			}
			if e.Iter < 0 {
				t.Errorf("simplex event without iteration: %+v", e)
			}
		case EventConverge:
			converge++
			switch e.Op {
			case "reltol", "stall", "confirmed", "budget", "init_budget":
			default:
				t.Errorf("unknown convergence reason %q", e.Op)
			}
			if e.Perf != res.BestPerf {
				t.Errorf("converge perf = %g, want %g", e.Perf, res.BestPerf)
			}
		}
	}
	if simplex == 0 {
		t.Error("no simplex events emitted")
	}
	if converge < 1 {
		t.Error("no convergence decision emitted")
	}

	// The traced trajectory ends at the kernel's reported best.
	traj := BestTrajectory(tr.Events, Maximize)
	if len(traj) == 0 {
		t.Fatal("empty trajectory")
	}
	if got := traj[len(traj)-1]; got != res.BestPerf {
		t.Errorf("trajectory final = %g, want BestPerf %g", got, res.BestPerf)
	}
	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1] {
			t.Errorf("best-so-far regressed at %d: %g -> %g", i, traj[i-1], traj[i])
		}
	}
}

// TestMultiTracerAndStampSession covers the composition helpers, including
// their nil fast paths.
func TestMultiTracerAndStampSession(t *testing.T) {
	if MultiTracer() != nil || MultiTracer(nil, nil) != nil {
		t.Error("MultiTracer of nothing should be nil")
	}
	var a, b CollectTracer
	if MultiTracer(&a, nil) != Tracer(&a) {
		t.Error("single live tracer should pass through")
	}
	m := MultiTracer(&a, nil, &b)
	m.Emit(Event{Type: EventEval, Perf: 1})
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Errorf("fan-out: a=%d b=%d", len(a.Events), len(b.Events))
	}

	if StampSession(nil, "x") != nil {
		t.Error("StampSession(nil) should stay nil")
	}
	st := StampSession(&a, "sess-1")
	st.Emit(Event{Type: EventEval})
	st.Emit(Event{Session: "pre", Type: EventEval})
	if got := a.Events[1].Session; got != "sess-1" {
		t.Errorf("stamped session = %q", got)
	}
	if got := a.Events[2].Session; got != "pre" {
		t.Errorf("pre-stamped session overwritten: %q", got)
	}
}

// TestBestTrajectoryDirections: the fold respects the tuning direction and
// skips cache hits and non-eval events.
func TestBestTrajectoryDirections(t *testing.T) {
	events := []Event{
		{Type: EventPhase, Perf: -999},
		{Type: EventEval, Perf: 5},
		{Type: EventEval, Perf: 3},
		{Type: EventEval, Cached: true, Perf: math.Inf(1)},
		{Type: EventEval, Perf: 8},
	}
	max := BestTrajectory(events, Maximize)
	wantMax := []float64{5, 5, 8}
	min := BestTrajectory(events, Minimize)
	wantMin := []float64{5, 3, 3}
	for i := range wantMax {
		if max[i] != wantMax[i] {
			t.Errorf("max[%d] = %g, want %g", i, max[i], wantMax[i])
		}
		if min[i] != wantMin[i] {
			t.Errorf("min[%d] = %g, want %g", i, min[i], wantMin[i])
		}
	}
	if BestTrajectory(nil, Maximize) != nil {
		t.Error("empty stream should fold to nil")
	}
}

// TestTypedNotesFormatAsText: an event carrying a typed note formats it as
// the kernels' fmt layouts did, and its JSON is byte for byte the JSON of
// the same event with that text in Note.
func TestTypedNotesFormatAsText(t *testing.T) {
	for _, c := range []struct {
		note Note
		want string
	}{
		{Note{Kind: NoteConverge, A: 22, B: 1, C: 8}, fmt.Sprintf("evals=%d %s", 22, fmt.Sprintf("stall=%d", 8))},
		{Note{Kind: NoteConverge, A: 9, B: 1, C: 4, Flag: true}, fmt.Sprintf("evals=%d %s", 9, fmt.Sprintf("stall=%d prior-confirmed", 4))},
		{Note{Kind: NoteConverge, A: 57, B: 2, C: 40}, fmt.Sprintf("evals=%d pbest=%d %s", 57, 2, fmt.Sprintf("stall=%d", 40))},
		{Note{Kind: NoteConverge, A: 0, B: 3, C: 4, Flag: true}, fmt.Sprintf("evals=%d pbest=%d %s", 0, 3, fmt.Sprintf("stall=%d prior-confirmed", 4))},
		{Note{Kind: NoteShrink, A: 10}, fmt.Sprintf("re-measured %d vertices", 10)},
		{Note{Kind: NoteVertexAccepted, A: 7}, fmt.Sprintf("vertex %d accepted", 7)},
		{Note{Kind: NoteVertexRejected, A: 10}, fmt.Sprintf("vertex %d rejected", 10)},
		{Note{Kind: NotePolish, A: 31}, fmt.Sprintf("remaining=%d frac=%v", 31, polishFrac)},
		{Note{Kind: NoteRungOpen, A: 3, B: 27}, fmt.Sprintf("bracket=%d candidates=%d", 3, 27)},
		{Note{Kind: NoteRungPromote, A: 0, B: 1}, fmt.Sprintf("bracket=%d survivors=%d", 0, 1)},
		{Note{Kind: NoteTriage, A: 4, Flag: true}, fmt.Sprintf("seeds=%d budget_hit=%v", 4, true)},
		{Note{Kind: NoteTriage, A: -1}, fmt.Sprintf("seeds=%d budget_hit=%v", -1, false)},
	} {
		typed := Event{Session: "s", Time: time.Unix(1, 2).UTC(), Type: EventConverge, Op: "stall", Config: Config{1, 2}, Perf: 3.5, Detail: c.note}
		if got := typed.NoteText(); got != c.want {
			t.Errorf("%+v formats %q, want %q", c.note, got, c.want)
		}
		plain := typed
		plain.Detail, plain.Note = Note{}, c.want
		got, err := json.Marshal(typed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("JSON of %+v:\n%s\nwant\n%s", c.note, got, want)
		}
	}
	if e := (Event{Note: "free", Detail: Note{Kind: NoteShrink, A: 1}}); e.NoteText() != "free" {
		t.Errorf("a free-form note gave way to the typed one: %q", e.NoteText())
	}
}
