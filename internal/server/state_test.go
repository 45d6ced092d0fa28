package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/search"
)

func TestSessionStateEmitTracksBest(t *testing.T) {
	st := &sessionState{snap: SessionSnapshot{ID: "s"}}
	st.registered("app", search.Minimize, 2, 4, false, func(c search.Config) []int { return []int(c.Clone()) })

	st.Emit(search.Event{Type: search.EventEval, Config: search.Config{1, 2}, Perf: 10})
	st.Emit(search.Event{Type: search.EventEval, Config: search.Config{5, 6}, Perf: 7})
	st.Emit(search.Event{Type: search.EventEval, Config: search.Config{7, 8}, Perf: 9})
	// A cache hit is a committed truth for this session too: it counts
	// separately but still feeds best-so-far.
	st.Emit(search.Event{Type: search.EventEval, Cached: true, Config: search.Config{3, 4}, Perf: 4})
	st.Emit(search.Event{Type: search.EventSimplex, Iter: 3, Op: search.OpReflect})
	st.Emit(search.Event{Type: search.EventPhase, Op: "retune"})
	st.Emit(search.Event{Type: search.EventConverge, Op: "reltol"})

	snap := st.Snapshot()
	if snap.Evals != 3 || snap.Cached != 1 {
		t.Errorf("counters = evals %d cached %d, want 3/1", snap.Evals, snap.Cached)
	}
	if !snap.HaveBest || snap.BestPerf != 4 || len(snap.BestConfig) != 2 || snap.BestConfig[0] != 3 {
		t.Errorf("best = %v @ %v, want [3 4] @ 4 (minimize keeps the lowest)", snap.BestConfig, snap.BestPerf)
	}
	if snap.Iter != 3 || snap.LastOp != search.OpReflect || snap.Converged != "reltol" {
		t.Errorf("kernel state = iter %d op %q conv %q", snap.Iter, snap.LastOp, snap.Converged)
	}
	if snap.Retunes != 1 || snap.Phase != "retune" {
		t.Errorf("retunes = %d phase %q, want 1 and retune", snap.Retunes, snap.Phase)
	}
	// Snapshots are detached: mutating one must not touch the live state.
	snap.BestConfig[0] = 99
	if st.Snapshot().BestConfig[0] == 99 {
		t.Error("Snapshot aliases live state")
	}
}

func TestSessionRegistryLifecycleAndRetention(t *testing.T) {
	s := NewServer()

	a := s.trackState("a", "1.2.3.4:1", "conn-1")
	b := s.trackState("b", "1.2.3.4:2", "conn-2")
	c := s.trackState("c", "1.2.3.4:3", "conn-3")
	s.trackState("d", "1.2.3.4:4", "conn-4")

	if got := len(s.SessionSnapshots()); got != 4 {
		t.Fatalf("4 running sessions, snapshots = %d", got)
	}

	s.finishState(a, SessionEnd{Completed: true, Deposited: true})
	s.finishState(b, SessionEnd{Err: errors.New("boom")})
	s.finishState(c, SessionEnd{Completed: true})
	// 254 more finished sessions: 257 in all, one past the ring.
	for i := 0; i < sessionHistory-2; i++ {
		id := fmt.Sprintf("f%d", i)
		s.finishState(s.trackState(id, "5.6.7.8:1", "conn-"+id), SessionEnd{Completed: true})
	}

	snaps := s.SessionSnapshots()
	// 1 running + the retained history.
	if len(snaps) != 1+sessionHistory {
		t.Fatalf("snapshots = %d, want %d (1 running + history of %d)", len(snaps), 1+sessionHistory, sessionHistory)
	}
	if snaps[0].ID != "d" || snaps[0].Status != StatusRunning {
		t.Errorf("running session must sort first, got %s (%s)", snaps[0].ID, snaps[0].Status)
	}
	// "a" (oldest finished) was evicted from the ring.
	if _, ok := s.SessionSnapshot("a"); ok {
		t.Error("oldest finished session survived a full ring")
	}
	if snap, ok := s.SessionSnapshot("b"); !ok || snap.Status != StatusFailed || snap.Err != "boom" {
		t.Errorf("failed session snapshot = %+v ok=%v", snap, ok)
	}
	if snap, ok := s.SessionSnapshot("c"); !ok || snap.Status != StatusCompleted || snap.EndedAt.IsZero() {
		t.Errorf("completed session snapshot = %+v ok=%v", snap, ok)
	}
}

func TestRetuneStates(t *testing.T) {
	s := NewServer()
	st := s.trackState("live", "r:1", "conn-5")

	if err := s.Retune("nope"); !errors.Is(err, ErrSessionUnknown) {
		t.Errorf("Retune(unknown) = %v, want ErrSessionUnknown", err)
	}
	if err := s.Retune("live"); err != nil {
		t.Fatalf("Retune(running) = %v", err)
	}
	if !st.takeRetune(false, true) {
		t.Error("pending retune was not consumable")
	}
	if st.takeRetune(false, true) {
		t.Error("retune request must be consumed exactly once")
	}

	s.finishState(st, SessionEnd{Completed: true})
	if err := s.Retune("live"); !errors.Is(err, ErrSessionDone) {
		t.Errorf("Retune(finished) = %v, want ErrSessionDone", err)
	}
}

// TestSessionSnapshotEndToEnd drives a real tuning session and checks the
// control-plane snapshot it leaves behind.
func TestSessionSnapshotEndToEnd(t *testing.T) {
	s, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(func(cfg search.Config) float64 {
		dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
		return 1000 - dx*dx - dy*dy
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	deadline := time.Now().Add(2 * time.Second)
	var snap SessionSnapshot
	for {
		snaps := s.SessionSnapshots()
		if len(snaps) == 1 && snaps[0].Status != StatusRunning {
			snap = snaps[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never settled: %+v", snaps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Status != StatusCompleted {
		t.Errorf("status = %s (err %q), want completed", snap.Status, snap.Err)
	}
	if snap.Evals <= 0 || !snap.HaveBest || snap.Dim != 2 || snap.Window < 1 {
		t.Errorf("snapshot = %+v, want live kernel state filled in", snap)
	}
	if snap.BestPerf != best.Perf {
		t.Errorf("snapshot best %v != client best %v", snap.BestPerf, best.Perf)
	}
	if len(snap.BestConfig) != 2 {
		t.Errorf("best config = %v, want client-facing pair", snap.BestConfig)
	}
	if snap.Direction != "max" {
		t.Errorf("direction = %q, want max", snap.Direction)
	}
	if snap.EndedAt.IsZero() || snap.EndedAt.Before(snap.StartedAt) {
		t.Errorf("timestamps: started %v ended %v", snap.StartedAt, snap.EndedAt)
	}
	if _, ok := s.SessionSnapshot(snap.ID); !ok {
		t.Errorf("finished session %s not retrievable by ID", snap.ID)
	}
}

func TestSessionStateBestAtEval(t *testing.T) {
	st := &sessionState{snap: SessionSnapshot{ID: "s"}}
	st.registered("app", search.Maximize, 1, 1, true, nil)
	for _, e := range []search.Event{
		{Type: search.EventEval, Config: search.Config{1}, Perf: 5},
		{Type: search.EventEval, Config: search.Config{2}, Perf: 8}, // last improvement
		{Type: search.EventEval, Config: search.Config{3}, Perf: 9, Estimated: true},
		{Type: search.EventEval, Config: search.Config{4}, Perf: 9, Fidelity: 0.25},
		{Type: search.EventEval, Config: search.Config{5}, Perf: 7},
		{Type: search.EventEval, Cached: true, Config: search.Config{2}, Perf: 8},
	} {
		st.Emit(e)
	}
	// Neither an estimate nor a low-fidelity observation is an incumbent
	// improvement, so the best was found at the second of five evals.
	if snap := st.Snapshot(); snap.BestAtEval != 2 || snap.Evals != 5 {
		t.Errorf("best_at_eval %d of %d evals, want 2 of 5", snap.BestAtEval, snap.Evals)
	}
}

// TestSessionStopReasonAndPostConvergenceSpend runs a cold session and a
// warm one that starts on the cold session's best. Each convergence note
// names the stall horizon in force, and each snapshot says when the
// session found its best.
func TestSessionStopReasonAndPostConvergenceSpend(t *testing.T) {
	var mu sync.Mutex
	notes := map[string][]string{}
	s, addr := startServerWith(t, func(s *Server) {
		s.Tracer = search.TracerFunc(func(e search.Event) {
			if e.Type == search.EventConverge {
				mu.Lock()
				notes[e.Session] = append(notes[e.Session], e.NoteText())
				mu.Unlock()
			}
		})
	})
	run := func() SessionSnapshot {
		t.Helper()
		c := dial(t, addr)
		if _, err := c.Register(quadRSL, RegisterOptions{
			MaxEvals: 150, Improved: true, App: "shop", Characteristics: []float64{0.8, 0.2},
		}); err != nil {
			t.Fatal(err)
		}
		n := 0
		if _, err := c.Tune(quadMeasure(20, 45, &n)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		deadline := time.Now().Add(2 * time.Second)
		for {
			for _, snap := range s.SessionSnapshots() {
				if snap.Status == StatusCompleted && snap.Warm == c.WarmStarted() {
					return snap
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("session never completed")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	cold, warm := run(), run()
	if !warm.Warm || cold.Warm {
		t.Fatalf("warm flags: cold %v warm %v", cold.Warm, warm.Warm)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, c := range []struct {
		snap SessionSnapshot
		want string
	}{
		{cold, "stall=8"}, // 4·dim on the 2-parameter space
		{warm, "stall=4 prior-confirmed"},
	} {
		got := notes[c.snap.ID]
		if len(got) == 0 || !strings.HasSuffix(got[0], c.want) {
			t.Errorf("session %s (warm=%v) convergence notes %q, want the first to end %q",
				c.snap.ID, c.snap.Warm, got, c.want)
		}
		if c.snap.BestAtEval < 1 || c.snap.BestAtEval > c.snap.Evals {
			t.Errorf("session %s best_at_eval %d outside [1, %d]", c.snap.ID, c.snap.BestAtEval, c.snap.Evals)
		}
	}
	// The warm start seeds the prior's best as a vertex of its initial
	// simplex, so its best is one of the first dim+1 evaluations.
	if warm.BestAtEval > 3 {
		t.Errorf("warm best_at_eval = %d, want within the seeded simplex", warm.BestAtEval)
	}
}

// TestSessionMeasuredCountsClientWork runs a session against a shared
// cache that a shorter session of the same namespace filled first, so layer
// hits answer the start of its walk and the client measures the rest.
// Measured counts only what the client measured, and MeasuredAtBest says
// how much of that came before the session's best.
func TestSessionMeasuredCountsClientWork(t *testing.T) {
	s, addr, _ := startCacheServer(t, CacheShared)
	opts := RegisterOptions{App: "webapp", MaxEvals: 8, Improved: true}
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tune(cacheQuad); err != nil {
		t.Fatal(err)
	}
	c.Close()
	opts.MaxEvals = 150
	measured := tuneCounting(t, addr, opts)

	var snap SessionSnapshot
	deadline := time.Now().Add(2 * time.Second)
	for snap.ID == "" {
		if time.Now().After(deadline) {
			t.Fatal("sessions never completed")
		}
		time.Sleep(10 * time.Millisecond)
		snaps := s.SessionSnapshots()
		if len(snaps) == 2 && snaps[0].Status == StatusCompleted && snaps[1].Status == StatusCompleted {
			snap = snaps[0]
			if snaps[1].StartedAt.After(snap.StartedAt) {
				snap = snaps[1]
			}
		}
	}
	if snap.Measured != measured {
		t.Errorf("measured = %d, client measured %d", snap.Measured, measured)
	}
	if snap.Measured == 0 || snap.Measured >= snap.Evals {
		t.Errorf("measured %d of %d evals, want layer hits to make up part of the evals", snap.Measured, snap.Evals)
	}
	// Window 1: each configuration is served, measured and committed
	// before the next, so the client work at the best is at most the
	// kernel's evaluations at it, and it is what the layer hits left over.
	if snap.MeasuredAtBest > snap.Measured || snap.MeasuredAtBest > snap.BestAtEval ||
		snap.MeasuredAtBest < snap.BestAtEval-(snap.Evals-snap.Measured) {
		t.Errorf("measured_at_best %d, want within measured %d and best_at_eval %d less %d layer hits",
			snap.MeasuredAtBest, snap.Measured, snap.BestAtEval, snap.Evals-snap.Measured)
	}
}
