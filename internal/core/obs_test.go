package core

import (
	"bytes"
	"testing"

	"harmony/internal/history"
	"harmony/internal/obs"
	"harmony/internal/search"
)

func obsSpace(t *testing.T) *search.Space {
	t.Helper()
	return search.MustSpace(
		search.Param{Name: "x", Min: 0, Max: 60, Step: 1, Default: 0},
		search.Param{Name: "y", Min: 0, Max: 60, Step: 1, Default: 0},
	)
}

func obsPeak(cfg search.Config) float64 {
	dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
	return 1000 - dx*dx - dy*dy
}

// TestTraceReconstructsSessionMetrics is the acceptance gate for the JSONL
// trace: run a tuning session through an obs.JSONL sink, read the trace back
// offline, and check the reconstructed best-performance trajectory matches
// the live Session.Metrics answer — evaluation count included.
func TestTraceReconstructsSessionMetrics(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)

	tuner := New(obsSpace(t), search.ObjectiveFunc(obsPeak))
	sess, err := tuner.Run(Options{
		Direction: search.Maximize,
		MaxEvals:  120,
		Improved:  true,
		Tracer:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	traj := search.BestTrajectory(events, search.Maximize)
	m := sess.Metrics(0.01, 10, 0.7)

	if len(traj) != m.Evals {
		t.Errorf("trace has %d real measurements, session reports %d", len(traj), m.Evals)
	}
	if len(traj) == 0 {
		t.Fatal("empty reconstructed trajectory")
	}
	if got := traj[len(traj)-1]; got != m.BestPerf {
		t.Errorf("reconstructed best = %g, session best = %g", got, m.BestPerf)
	}
	// The trace's convergence decision names the same best.
	var converge *search.Event
	for i := range events {
		if events[i].Type == search.EventConverge {
			converge = &events[i]
		}
	}
	if converge == nil {
		t.Fatal("trace carries no convergence decision")
	}
	if converge.Perf != m.BestPerf {
		t.Errorf("converge event perf = %g, want %g", converge.Perf, m.BestPerf)
	}
}

// TestTunerPhaseMarkers: with experience wired in, the trace shows a
// training phase (with its seed injections) strictly before the live phase.
func TestTunerPhaseMarkers(t *testing.T) {
	// Build prior experience from a quick unassisted session.
	space := obsSpace(t)
	tuner := New(space, search.ObjectiveFunc(obsPeak))
	prior, err := tuner.Run(Options{Direction: search.Maximize, MaxEvals: 60, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	exp := history.FromTrace("prior", []float64{1, 2}, search.Maximize, prior.Result.Trace)

	var tr search.CollectTracer
	sess, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   80,
		Improved:   true,
		Experience: exp,
		Tracer:     &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.TrainingUsed == 0 {
		t.Fatal("experience supplied but no training vertices used")
	}

	trainingAt, liveAt, firstEval := -1, -1, -1
	for i, e := range tr.Events {
		switch {
		case e.Type == search.EventPhase && e.Op == "training":
			trainingAt = i
		case e.Type == search.EventPhase && e.Op == "live":
			liveAt = i
		case e.Type == search.EventEval && !e.Cached && firstEval < 0:
			firstEval = i
		}
	}
	if trainingAt < 0 || liveAt < 0 {
		t.Fatalf("phase markers missing: training=%d live=%d", trainingAt, liveAt)
	}
	if !(trainingAt < liveAt) {
		t.Errorf("training marker (%d) not before live marker (%d)", trainingAt, liveAt)
	}
	if firstEval >= 0 && firstEval < liveAt {
		t.Errorf("real measurement at %d before the live marker %d", firstEval, liveAt)
	}
}

// TestTunerNilTracer: the un-instrumented path stays intact (the nil fast
// path must not regress results).
func TestTunerNilTracer(t *testing.T) {
	tuner := New(obsSpace(t), search.ObjectiveFunc(obsPeak))
	sess, err := tuner.Run(Options{Direction: search.Maximize, MaxEvals: 120, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Result.BestPerf < 980 {
		t.Errorf("best = %g, want >= 980", sess.Result.BestPerf)
	}
}
