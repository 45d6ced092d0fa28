package server

import (
	"errors"
	"math"
	"testing"
	"time"

	"harmony/internal/faultnet"
	"harmony/internal/search"
)

// appChars are the workload characteristics shared by the fault-matrix
// sessions so deposited traces can warm-start follow-up sessions.
var appChars = []float64{0.3, 0.7, 1.1}

// waitEnd receives one SessionEnd or fails the test. The timeout is a
// failure detector for deadlocks, not a synchronization sleep: the happy
// path never waits on the clock.
func waitEnd(t *testing.T, ends <-chan SessionEnd) SessionEnd {
	t.Helper()
	select {
	case end := <-ends:
		return end
	case <-time.After(10 * time.Second):
		t.Fatal("server session did not end: handler wedged")
		return SessionEnd{}
	}
}

// quadPeak is the well-behaved objective: peak 1000 at (20, 45).
func quadPeak(cfg search.Config) float64 {
	dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
	return 1000 - dx*dx - dy*dy
}

// TestFaultMatrix runs a full register→fetch→report session under each
// faultnet fault and asserts the server neither deadlocks nor corrupts the
// experience DB: every faulty session ends, a clean follow-up session on
// the same server completes, and partial traces warm-start it when the
// fault struck after real measurements.
func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		plan faultnet.Plan
		// wantSuccess: the fault is survivable and the faulty session
		// itself still delivers a best.
		wantSuccess bool
		// wantDeposit: the session (complete or partial) must have left a
		// trace in the experience store, observable as a warm follow-up.
		wantDeposit bool
	}{
		// Writes from the client: 1=register, 2=fetch, 3=report, 4=fetch,
		// 5=report, ... so the faults below strike mid-session, after real
		// measurements exist.
		{"drop-mid-session", faultnet.Plan{DropAfterWrites: 5, Seed: 1}, false, true},
		{"read-stall", faultnet.Plan{StallAfterWrites: 2, Seed: 2}, false, false},
		{"truncated-write", faultnet.Plan{TruncateWriteAt: 5, Seed: 3}, false, true},
		{"garbage-line", faultnet.Plan{GarbageBeforeWrite: 3, Seed: 4}, true, true},
		{"trickled-writes", faultnet.Plan{ChunkWrites: 2, Seed: 5}, true, true},
		{"slow-peer", faultnet.Plan{WriteLatency: 2 * time.Millisecond, Seed: 6}, true, true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer()
			s.IdleTimeout = 300 * time.Millisecond
			s.WriteTimeout = 2 * time.Second
			ends := make(chan SessionEnd, 16)
			s.OnSessionEnd = func(e SessionEnd) { ends <- e }
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })

			// The faulty session.
			fc, err := faultnet.Dial(addr.String(), 2*time.Second, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fc.Close() })
			c := NewClientConn(fc)

			tuneDone := make(chan error, 1)
			go func() {
				if _, err := c.Register(quadRSL, RegisterOptions{
					MaxEvals: 120, Improved: true,
					App: "fault-matrix", Characteristics: appChars,
				}); err != nil {
					tuneDone <- err
					return
				}
				_, err := c.Tune(quadPeak)
				tuneDone <- err
			}()

			var end SessionEnd
			if tc.wantSuccess {
				select {
				case err := <-tuneDone:
					if err != nil {
						t.Fatalf("survivable fault killed the session: %v", err)
					}
					best, ok := c.BestResult()
					if !ok || best.Perf < 980 {
						t.Fatalf("best = %+v, want perf >= 980", best)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("client tuning loop wedged")
				}
				fc.Close() // hang up; the server-side session ends now
				end = waitEnd(t, ends)
				if !end.Completed {
					t.Errorf("session end = %+v, want Completed", end)
				}
			} else {
				// The server must detect the fault on its own (EOF, idle
				// timeout) and end the session without our help.
				end = waitEnd(t, ends)
				if end.Completed {
					t.Errorf("faulty session reported Completed: %+v", end)
				}
				fc.Close() // release any stalled client write
				select {
				case err := <-tuneDone:
					if err == nil {
						t.Error("client survived a fatal fault")
					}
				case <-time.After(10 * time.Second):
					t.Fatal("client did not unwind after the fault")
				}
			}
			if end.App != "fault-matrix" {
				t.Errorf("end.App = %q", end.App)
			}
			if end.Deposited != tc.wantDeposit {
				t.Errorf("end.Deposited = %v, want %v (end = %+v)", end.Deposited, tc.wantDeposit, end)
			}

			// The server must still serve a clean follow-up session with the
			// same app and characteristics — and warm-start it from the
			// deposited trace when there is one.
			c2 := dial(t, addr.String())
			if _, err := c2.Register(quadRSL, RegisterOptions{
				MaxEvals: 120, Improved: true,
				App: "fault-matrix", Characteristics: appChars,
			}); err != nil {
				t.Fatalf("follow-up session refused: %v", err)
			}
			if c2.WarmStarted() != tc.wantDeposit {
				t.Errorf("follow-up warm = %v, want %v", c2.WarmStarted(), tc.wantDeposit)
			}
			best, err := c2.Tune(quadPeak)
			if err != nil {
				t.Fatalf("follow-up session failed: %v", err)
			}
			if best.Perf < 980 {
				t.Errorf("follow-up best = %+v, want perf >= 980", best)
			}

			// Nothing may be left wedged: shutdown must drain promptly once
			// the clients are gone.
			c2.Close()
			done := make(chan error, 1)
			go func() { done <- s.Close() }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("close: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("server Close wedged after the fault")
			}
		})
	}
}

// TestLostReportMarksPointFailed pins the recovery path for a crashed
// measurement: fetch, never report, fetch again — the server scores the
// lost point with the worst-case penalty and keeps the session alive.
func TestLostReportMarksPointFailed(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true}); err != nil {
		t.Fatal(err)
	}
	if _, done, err := c.Fetch(); err != nil || done {
		t.Fatalf("first fetch: done=%v err=%v", done, err)
	}
	// The measurement "crashes": no report. Fetch again.
	cfg, done, err := c.Fetch()
	if err != nil {
		t.Fatalf("fetch after lost report: %v", err)
	}
	if done {
		t.Fatal("session ended prematurely")
	}
	if cfg == nil {
		t.Fatal("no configuration after lost report")
	}
	// Finish the session normally: the one penalized point must not poison
	// the final answer.
	if err := c.Report(quadPeak(cfg)); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v, want perf >= 980 despite the lost report", best)
	}
}

// TestAbsurdReportScoredAsPenalty: a finite-but-absurd performance value
// (beyond the failure-penalty magnitude) is treated as a failed
// measurement, charged against the budget, and the session continues.
func TestAbsurdReportScoredAsPenalty(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	best, err := c.Tune(func(cfg search.Config) float64 {
		calls++
		if calls == 1 {
			return 1e308 // absurd: beyond any plausible performance
		}
		return quadPeak(cfg)
	})
	if err != nil {
		t.Fatalf("session died on an absurd report: %v", err)
	}
	if best.Perf >= 1e300 {
		t.Errorf("absurd report won: best = %+v", best)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v, want perf >= 980", best)
	}
}

// TestFailureBudgetExhaustion: with zero tolerance, the first fault fails
// the session with a typed protocol error instead of wedging anything.
func TestFailureBudgetExhaustion(t *testing.T) {
	s := NewServer()
	s.FailureBudget = -1 // zero tolerance
	ends := make(chan SessionEnd, 4)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fetch(); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(1e308); err == nil {
		t.Fatal("zero-tolerance server accepted an absurd report")
	} else if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
	end := waitEnd(t, ends)
	if end.Err == nil {
		t.Errorf("session end = %+v, want budget-exhaustion error", end)
	}
}

// TestGarbageWithinBudgetKeepsSession: raw garbage lines interleaved with
// the protocol are skipped, charged against the budget, and the session
// still completes.
func TestGarbageWithinBudgetKeepsSession(t *testing.T) {
	s, addr := startServer(t)
	_ = s
	fc, err := faultnet.Dial(addr, 2*time.Second, faultnet.Plan{
		GarbageBeforeWrite: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	c := NewClientConn(fc)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(quadPeak)
	if err != nil {
		t.Fatalf("garbage within budget killed the session: %v", err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v", best)
	}
}

// TestFailureScoredPointsNeverDeposited: a point scored with the failure
// penalty (here after a NaN report) is not a measurement. Neither a
// completed session nor one severed mid-run after such a report may
// deposit it: the warm fill would serve the penalty to every later session
// of the namespace as an exact hit.
func TestFailureScoredPointsNeverDeposited(t *testing.T) {
	s := NewServer()
	ends := make(chan SessionEnd, 4)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	a, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addr := a.String()
	opts := func(app string) RegisterOptions {
		return RegisterOptions{MaxEvals: 40, Improved: true, App: app, Characteristics: appChars, Proto: 3}
	}

	// A completed session whose second measurement came back NaN.
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, opts("completed")); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if _, err := c.Tune(func(cfg search.Config) float64 {
		if calls++; calls == 2 {
			return math.NaN()
		}
		return quadPeak(cfg)
	}); err != nil {
		t.Fatal(err)
	}
	waitEnd(t, ends)

	// A session severed after a NaN report and one real measurement: its
	// partial trace is deposited on disconnect.
	c2 := dial(t, addr)
	if _, err := c2.Register(quadRSL, opts("severed")); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []bool{true, false} {
		cfg, done, err := c2.Fetch()
		if err != nil || done {
			t.Fatalf("fetch: done=%v err=%v", done, err)
		}
		perf := quadPeak(cfg)
		if bad {
			perf = math.NaN()
		}
		if err := c2.Report(perf); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c2.Fetch(); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	waitEnd(t, ends)

	store := s.ExperienceStore()
	nss := store.Namespaces()
	if len(nss) != 2 {
		t.Fatalf("deposited namespaces %+v, want the completed and the severed session's", nss)
	}
	for _, ns := range nss {
		page, total := store.BrowseRecords(ns.Key, 0, ns.Records)
		if total == 0 {
			t.Errorf("%s: nothing deposited", ns.Key)
		}
		for _, r := range page {
			if search.IsFailure(r.Perf, search.Maximize) {
				t.Errorf("%s: deposited %v at failure score %g", ns.Key, r.Config, r.Perf)
			}
		}
	}
}
