package server

import (
	"sync"
	"testing"

	"harmony/internal/search"
)

// eventSink collects trace events; safe for the concurrent Emit the server
// contract requires.
type eventSink struct {
	mu     sync.Mutex
	events []search.Event
}

func (s *eventSink) Emit(e search.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) byType(t search.EventType) []search.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []search.Event
	for _, e := range s.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// fidelityQuad is a fidelity-aware paraboloid: full measurements are exact,
// partial ones (triage rungs) get a deterministic wobble scaled by how much
// of the horizon was skipped — the analogue of a shortened benchmark run.
func fidelityQuad(cfg search.Config, fidelity float64) float64 {
	dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
	perf := 1000 - dx*dx - dy*dy
	if fidelity > 0 && fidelity < 1 {
		h := uint64(cfg[0]*31+cfg[1])*0x9e3779b97f4a7c15 + 1
		h ^= h >> 29
		u := float64(h%1000)/999*2 - 1
		perf += 40 * (1 - fidelity) * u
	}
	return perf
}

func TestHyperbandSessionEndToEnd(t *testing.T) {
	sink := &eventSink{}
	s := NewServer()
	s.SearchKernel = KernelHyperband
	s.Tracer = sink
	ends := make(chan SessionEnd, 1)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 400, Improved: true}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	lowFetches, fullFetches := 0, 0
	best, err := c.TuneAt(func(cfg search.Config, fid float64) float64 {
		mu.Lock()
		if fid > 0 && fid < 1 {
			lowFetches++
		} else {
			fullFetches++
		}
		mu.Unlock()
		return fidelityQuad(cfg, fid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 950 {
		t.Errorf("hyperband best = %+v, want perf >= 950", best)
	}
	if lowFetches == 0 {
		t.Error("hyperband session requested no reduced-fidelity measurements")
	}
	if fullFetches == 0 {
		t.Error("hyperband session requested no full-fidelity measurements")
	}

	rungs := sink.byType(search.EventRung)
	if len(rungs) == 0 {
		t.Fatal("no rung events on the trace stream")
	}
	promotions, partialRungs := 0, 0
	for _, e := range rungs {
		if e.Op == "promote" {
			promotions++
		}
		if e.Op == "open" && !search.FullFidelity(e.Fidelity) {
			partialRungs++
		}
	}
	if promotions == 0 {
		t.Error("no rung promotions recorded")
	}
	if partialRungs == 0 {
		t.Error("no rung opened at a partial fidelity")
	}

	// The state registry's per-rung accounting must have seen the triage.
	// The client holds best before the server has closed the session out;
	// its OnSessionEnd follows the registry's final update.
	waitEnd(t, ends)
	snaps := s.SessionSnapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.Status != StatusCompleted {
		t.Fatalf("snapshot status = %q, want completed", snap.Status)
	}
	if snap.Promotions == 0 || snap.LowFiEvals == 0 {
		t.Errorf("snapshot missing rung accounting: promotions=%d low_fi=%d",
			snap.Promotions, snap.LowFiEvals)
	}
	if snap.Phase != "polish" {
		t.Errorf("final phase = %q, want polish", snap.Phase)
	}
	// The dashboard best is a full-fidelity truth: the exact paraboloid
	// value of its own configuration, never a noisy triage perf.
	if want := fidelityQuad(snap.BestConfig, 1); snap.BestPerf != want {
		t.Errorf("snapshot best %v is not the full-fidelity value %v of %v",
			snap.BestPerf, want, snap.BestConfig)
	}
}

// TestHyperbandPipelinedBinary runs the hyperband kernel against a
// pipelined v3 client — reduced-fidelity configs and echoed reports ride
// the dedicated binary opcodes with correlation ids.
func TestHyperbandPipelinedBinary(t *testing.T) {
	s := NewServer()
	s.SearchKernel = KernelHyperband
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{
		MaxEvals: 400, Improved: true, Window: 4, Proto: 3,
	}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	low := 0
	best, err := c.TuneParallelAt(func(cfg search.Config, fid float64) float64 {
		if fid > 0 && fid < 1 {
			mu.Lock()
			low++
			mu.Unlock()
		}
		return fidelityQuad(cfg, fid)
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 950 {
		t.Errorf("pipelined hyperband best = %+v, want perf >= 950", best)
	}
	mu.Lock()
	defer mu.Unlock()
	if low == 0 {
		t.Error("no reduced-fidelity measurements crossed the binary framing")
	}
}

// TestHyperbandLegacyClientDegrades pins the compatibility story: a client
// that predates the fidelity field (plain Tune) against a hyperband server
// simply measures everything in full and still completes.
func TestHyperbandLegacyClientDegrades(t *testing.T) {
	s := NewServer()
	s.SearchKernel = KernelHyperband
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 400, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(func(cfg search.Config) float64 {
		dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
		return 1000 - dx*dx - dy*dy
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 950 {
		t.Errorf("legacy client against hyperband server: best = %+v", best)
	}
}

func TestParseSearchKernel(t *testing.T) {
	for in, want := range map[string]string{
		"": KernelSimplex, "simplex": KernelSimplex, "hyperband": KernelHyperband,
	} {
		got, err := ParseSearchKernel(in)
		if err != nil || got != want {
			t.Errorf("ParseSearchKernel(%q) = %q, %v, want %q", in, got, err, want)
		}
	}
	if _, err := ParseSearchKernel("annealing"); err == nil {
		t.Error("unknown kernel accepted")
	}
}
