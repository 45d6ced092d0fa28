package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"

	"harmony/internal/evalcache"
	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/stats"
)

// collectTracer captures the typed event stream with a lock; tests reduce
// it to the deterministic fields before comparing.
type collectTracer struct {
	mu     sync.Mutex
	events []search.Event
}

func (c *collectTracer) Emit(e search.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectTracer) snapshot() []search.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]search.Event(nil), c.events...)
}

// TestDriftDetectTriggersWarmRetune drives the whole continuous-tuning
// loop end to end over both wire framings: a client tunes under workload A,
// the observed characteristics switch to workload B mid-session (and the
// performance surface moves with them), and the server must detect the
// drift, deposit the finished phase, warm re-tune in-session, and find the
// post-drift optimum — all inside one connection.
func TestDriftDetectTriggersWarmRetune(t *testing.T) {
	charsA := []float64{0.8, 0.2}
	charsB := []float64{0.1, 0.9}

	for _, tc := range []struct {
		name          string
		proto, window int
		// digest pins the lockstep sessions' event streams; the pipelined
		// one's drift point depends on worker order.
		digest string
	}{
		{"proto2", 2, 0, "138/5b2a5f880abc210a"},
		{"proto3", 3, 0, "138/5b2a5f880abc210a"},
		// Pipelined reports must carry the observed characteristics too,
		// or the detector never trips.
		{"proto3-window4", 3, 4, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := &collectTracer{}
			s := NewServer()
			s.DriftDetect = true
			s.Tracer = tracer
			ends := make(chan SessionEnd, 8)
			s.OnSessionEnd = func(e SessionEnd) { ends <- e }
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })

			c := dial(t, addr.String())
			if _, err := c.Register(quadRSL, RegisterOptions{
				MaxEvals: 400, Improved: true, App: "drifting",
				Characteristics: charsA, Proto: tc.proto, Window: tc.window,
			}); err != nil {
				t.Fatal(err)
			}
			c.SetObserved(charsA)

			// The workload drifts after a dozen measurements: the reported
			// characteristics switch to B and the optimum jumps from (20,45)
			// to (50,10).
			var n atomic.Int64
			measure := func(cfg search.Config) float64 {
				px, py := 20, 45
				if n.Add(1) > 12 {
					c.SetObserved(charsB)
					px, py = 50, 10
				}
				dx, dy := float64(cfg[0]-px), float64(cfg[1]-py)
				return 1000 - dx*dx - dy*dy
			}
			var best *Best
			if tc.window > 1 {
				best, err = c.TuneParallel(measure, tc.window)
			} else {
				best, err = c.Tune(measure)
			}
			if err != nil {
				t.Fatal(err)
			}
			end := <-ends
			if !end.Completed {
				t.Fatalf("session did not complete: %+v", end)
			}
			if tc.digest != "" {
				if got := eventDigest(tracer.snapshot(), end.ID); got != tc.digest {
					t.Errorf("event digest = %s, want %s", got, tc.digest)
				}
			}

			// The warm re-tune must have chased the moved optimum.
			if best.Perf < 900 {
				t.Errorf("post-drift best = %+v, want perf >= 900 (new peak found)", best)
			}

			snap, ok := s.SessionSnapshot(end.ID)
			if !ok {
				t.Fatal("no snapshot for the finished session")
			}
			if snap.Drifts < 1 {
				t.Errorf("snapshot drifts = %d, want >= 1", snap.Drifts)
			}
			if snap.Retunes < 1 {
				t.Errorf("snapshot retunes = %d, want >= 1 (drift must fund a warm re-tune)", snap.Retunes)
			}
			if snap.PhaseDeposits < 1 {
				t.Errorf("snapshot phase deposits = %d, want >= 1", snap.PhaseDeposits)
			}

			var detects, rematches int
			for _, e := range tracer.snapshot() {
				if e.Type != search.EventDrift {
					continue
				}
				switch e.Op {
				case "detect":
					detects++
					if e.Dist <= 0 {
						t.Errorf("drift detect event carries dist %v, want > 0", e.Dist)
					}
				case "rematch":
					rematches++
				}
			}
			if detects < 1 || rematches < 1 {
				t.Errorf("drift events: %d detect, %d rematch, want >= 1 of each", detects, rematches)
			}

			// Per-phase deposit round-trip: the store must now hold one
			// experience near each phase's workload vector, and sessions
			// arriving under either workload must warm-start.
			store := s.ExperienceStore()
			nss := store.Namespaces()
			if len(nss) != 1 {
				t.Fatalf("namespaces = %d, want 1", len(nss))
			}
			key := nss[0].Key
			expA, okA := store.Match(key, charsA)
			if !okA || stats.SquaredError(expA.Characteristics, charsA) > 0.05 {
				t.Errorf("no experience near phase-A vector: ok=%v exp=%+v", okA, expA)
			}
			expB, okB := store.Match(key, charsB)
			if !okB || stats.SquaredError(expB.Characteristics, charsB) > 0.05 {
				t.Errorf("no experience near phase-B vector: ok=%v exp=%+v", okB, expB)
			}

			for _, chars := range [][]float64{charsA, charsB} {
				c2 := dial(t, addr.String())
				if _, err := c2.Register(quadRSL, RegisterOptions{
					MaxEvals: 60, Improved: true, App: "drifting",
					Characteristics: chars, Proto: tc.proto,
				}); err != nil {
					t.Fatal(err)
				}
				if !c2.WarmStarted() {
					t.Errorf("session under %v not warm-started from the per-phase deposit", chars)
				}
				if _, err := c2.Tune(quadPeak); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// reducedEvent is the deterministic projection of a trace event used for
// trajectory-identity comparisons (times and durations vary run to run).
type reducedEvent struct {
	Type   search.EventType
	Op     string
	Iter   int
	Config string
	Perf   float64
	Dist   float64
}

func reduceEvents(events []search.Event) []reducedEvent {
	out := make([]reducedEvent, 0, len(events))
	for _, e := range events {
		out = append(out, reducedEvent{
			Type: e.Type, Op: e.Op, Iter: e.Iter,
			Config: fmt.Sprint(e.Config), Perf: e.Perf, Dist: e.Dist,
		})
	}
	return out
}

// eventDigest fingerprints one session's reduced event stream.
func eventDigest(events []search.Event, session string) string {
	var mine []search.Event
	for _, e := range events {
		if e.Session == session {
			mine = append(mine, e)
		}
	}
	h := fnv.New64a()
	for _, r := range reduceEvents(mine) {
		fmt.Fprintf(h, "%+v;", r)
	}
	return fmt.Sprintf("%d/%016x", len(mine), h.Sum64())
}

// TestRetuneLiveSession drives Server.Retune against a running kernel: a
// window-1 session asks for a re-tune at its client's 5th measurement, and
// the session must run exactly one reduced-scale re-tune after its first
// convergence, count it, drop nothing, and emit the event stream pinned by
// the digest.
func TestRetuneLiveSession(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kernel string
		digest string
	}{
		{"simplex", KernelSimplex, "77/042003ff1c19911e"},
		{"hyperband", KernelHyperband, "96/a037f4feab218dc0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := &collectTracer{}
			s := NewServer()
			s.SearchKernel = tc.kernel
			s.Tracer = tracer
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
			n := 0
			if _, err := c.TuneAt(func(cfg search.Config, fid float64) float64 {
				if n++; n == 5 {
					snaps := s.SessionSnapshots()
					if len(snaps) != 1 {
						t.Fatalf("sessions = %d, want 1", len(snaps))
					}
					if err := s.Retune(snaps[0].ID); err != nil {
						t.Fatalf("Retune(running) = %v", err)
					}
				}
				return fidelityQuad(cfg, fid)
			}); err != nil {
				t.Fatal(err)
			}
			end := <-ends
			if !end.Completed {
				t.Fatalf("session did not complete: %+v", end)
			}

			events := tracer.snapshot()
			converged, retunes := false, 0
			for _, e := range events {
				switch {
				case e.Type == search.EventConverge:
					converged = true
				case e.Type == search.EventPhase && e.Op == "retune":
					retunes++
					if !converged {
						t.Error("re-tune ran before the first convergence")
					}
				}
			}
			if retunes != 1 {
				t.Errorf("retune phases = %d, want 1", retunes)
			}
			snap, ok := s.SessionSnapshot(end.ID)
			if !ok || snap.Retunes != 1 || snap.DroppedRetunes != 0 {
				t.Errorf("snapshot retunes = %d dropped = %d (ok=%v), want 1 and 0",
					snap.Retunes, snap.DroppedRetunes, ok)
			}
			if got := eventDigest(events, end.ID); got != tc.digest {
				t.Errorf("event digest = %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestDriftDetectStationaryIdentity pins the no-op guarantee: with drift
// detection enabled, a session whose observed characteristics never leave
// the registered centroid must emit exactly the event stream it emits with
// detection disabled — same trajectory, no drift events.
func TestDriftDetectStationaryIdentity(t *testing.T) {
	chars := []float64{0.5, 0.5}
	run := func(detect bool) []search.Event {
		tracer := &collectTracer{}
		s := NewServer()
		s.DriftDetect = detect
		s.Tracer = tracer
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		c := dial(t, addr.String())
		if _, err := c.Register(quadRSL, RegisterOptions{
			MaxEvals: 120, Improved: true, App: "stationary", Characteristics: chars,
		}); err != nil {
			t.Fatal(err)
		}
		c.SetObserved(chars)
		if _, err := c.Tune(quadPeak); err != nil {
			t.Fatal(err)
		}
		return tracer.snapshot()
	}

	withDetect := run(true)
	withoutDetect := run(false)

	for _, e := range withDetect {
		if e.Type == search.EventDrift {
			t.Fatalf("stationary session emitted a drift event: %+v", e)
		}
	}
	got, want := reduceEvents(withDetect), reduceEvents(withoutDetect)
	if len(got) != len(want) {
		t.Fatalf("event counts differ: detect-on %d, detect-off %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d differs:\n detect-on  %+v\n detect-off %+v", i, got[i], want[i])
		}
	}
}

// TestRetuneSingleDecision covers the re-tune bookkeeping around the
// session's convergence decision: a request is consumed exactly once, a
// drift is served before it, a request the session can no longer run is
// counted as dropped, and once the session is past its final decision the
// API refuses with ErrSessionDone instead of silently accepting a no-op.
func TestRetuneSingleDecision(t *testing.T) {
	s := NewServer()
	dropped := func(id string) int {
		t.Helper()
		snap, ok := s.SessionSnapshot(id)
		if !ok {
			t.Fatalf("no snapshot for %s", id)
		}
		return snap.DroppedRetunes
	}

	t.Run("consumed once", func(t *testing.T) {
		st := s.trackState("once", "r:1", "conn-1")
		if err := s.Retune("once"); err != nil {
			t.Fatalf("Retune while running = %v", err)
		}
		if !st.takeRetune(false, true) {
			t.Fatal("pending request not consumed at the decision")
		}
		if st.takeRetune(false, true) {
			t.Error("request consumed twice")
		}
		if err := s.Retune("once"); !errors.Is(err, ErrSessionDone) {
			t.Errorf("Retune after a declining decision = %v, want ErrSessionDone", err)
		}
		if d := dropped("once"); d != 0 {
			t.Errorf("dropped retunes = %d, want 0", d)
		}
	})

	t.Run("drift first", func(t *testing.T) {
		st := s.trackState("drift", "r:2", "conn-2")
		if err := s.Retune("drift"); err != nil {
			t.Fatalf("Retune while running = %v", err)
		}
		if !st.takeRetune(true, true) {
			t.Fatal("drift not served")
		}
		if !st.takeRetune(false, true) {
			t.Fatal("request not left pending behind the drift")
		}
		if st.takeRetune(false, true) {
			t.Error("request consumed twice")
		}
	})

	t.Run("budget exhausted", func(t *testing.T) {
		st := s.trackState("spent", "r:3", "conn-3")
		if err := s.Retune("spent"); err != nil {
			t.Fatalf("Retune while running = %v", err)
		}
		if st.takeRetune(true, false) {
			t.Fatal("decision without budget funded a re-tune")
		}
		if d := dropped("spent"); d != 1 {
			t.Errorf("dropped retunes = %d, want 1", d)
		}
		if err := s.Retune("spent"); !errors.Is(err, ErrSessionDone) {
			t.Errorf("Retune after the final decision = %v, want ErrSessionDone", err)
		}
		s.finishState(st, SessionEnd{Completed: true})
		if d := dropped("spent"); d != 1 {
			t.Errorf("dropped retunes after teardown = %d, want 1", d)
		}
	})

	t.Run("kernel unwound", func(t *testing.T) {
		st := s.trackState("gone", "r:4", "conn-4")
		if err := s.Retune("gone"); err != nil {
			t.Fatalf("Retune while running = %v", err)
		}
		s.finishState(st, SessionEnd{Err: errors.New("client gone")})
		if d := dropped("gone"); d != 1 {
			t.Errorf("dropped retunes = %d, want 1", d)
		}
		// A Retune that looked the session up before teardown reaches its
		// state after it: the request must be refused, not left pending.
		if st.requestRetune() {
			t.Error("ended session accepted a re-tune request")
		}
		if err := s.Retune("gone"); !errors.Is(err, ErrSessionDone) {
			t.Errorf("Retune after teardown = %v, want ErrSessionDone", err)
		}
	})

	// The same decision under contention: requests racing the session's
	// decisions must each be run, counted as dropped, or refused with
	// ErrSessionDone — never vanish silently. Requests accepted between
	// two decisions collapse into one.
	for _, more := range []bool{true, false} {
		t.Run(fmt.Sprintf("contended more=%v", more), func(t *testing.T) {
			id := fmt.Sprintf("race-%v", more)
			st := s.trackState(id, "r:5", "conn-5")
			var wg sync.WaitGroup
			refused := make(chan error, 16)
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					refused <- s.Retune(id)
				}()
			}
			runs := 0
			for st.takeRetune(false, more) {
				runs++
			}
			wg.Wait()
			close(refused)
			var accepted, rejected int
			for err := range refused {
				switch {
				case err == nil:
					accepted++
				case errors.Is(err, ErrSessionDone):
					rejected++
				default:
					t.Fatalf("unexpected retune error: %v", err)
				}
			}
			if accepted+rejected != 16 {
				t.Fatalf("requests unaccounted for: %d accepted, %d rejected", accepted, rejected)
			}
			d := dropped(id)
			if accepted > 0 && runs+d == 0 {
				t.Errorf("%d accepted requests neither run nor dropped", accepted)
			}
			if runs+d > accepted {
				t.Errorf("runs %d + dropped %d exceed %d accepted", runs, d, accepted)
			}
			if more && d != 0 || !more && runs != 0 {
				t.Errorf("more=%v: runs %d, dropped %d", more, runs, d)
			}
			if err := s.Retune(id); !errors.Is(err, ErrSessionDone) {
				t.Errorf("Retune after the final decision = %v, want ErrSessionDone", err)
			}
		})
	}
}

// TestLooseGateNeverClaimsEstimatedBest is the satellite regression for
// the estimated-best bug: with an absurdly permissive estimation gate the
// plane fit answers many probes (often optimistically on a curved
// surface), and none of those estimates may be reported as the session
// best — the best must be a configuration the client really measured, at
// the performance it really measured.
func TestLooseGateNeverClaimsEstimatedBest(t *testing.T) {
	scope, err := ParseCacheScope("session")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.EvalCache = scope
	s.EstimateGate = true
	s.CacheMetrics = evalcache.NewMetrics(obs.NewRegistry())
	s.GateOptions = evalcache.GateOptions{
		MaxVertexDist:   100,
		MaxRelResidual:  100,
		MinRecords:      3,
		TruthCheckEvery: 0,
		AdaptErrorBound: -1, // keep the gate loose: adaptation off
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{
		MaxEvals: 200, Improved: true, App: "loose-gate",
	}); err != nil {
		t.Fatal(err)
	}
	measured := map[string]float64{}
	surface := func(cfg search.Config) float64 {
		dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
		return 1000 - dx*dx - dy*dy
	}
	best, err := c.Tune(func(cfg search.Config) float64 {
		perf := surface(cfg)
		measured[fmt.Sprint(cfg)] = perf
		return perf
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheMetrics.Estimated.Value() == 0 {
		t.Fatal("gate answered nothing; the regression test is vacuous")
	}
	truth, ok := measured[fmt.Sprint(best.Values)]
	if !ok {
		t.Fatalf("reported best %v was never measured by the client (estimate claimed as best)", best.Values)
	}
	if best.Perf != truth {
		t.Errorf("reported best perf %v != measured truth %v for %v", best.Perf, truth, best.Values)
	}
	if truth != surface(best.Values) {
		t.Errorf("bookkeeping: measured map disagrees with the surface")
	}
}

// TestV3ReportCharacteristicsRoundTrip pins the opReportC frame: reports
// carrying observed workload characteristics must round-trip the vector,
// the correlation ID and the fidelity over the binary framing.
func TestV3ReportCharacteristicsRoundTrip(t *testing.T) {
	cases := []message{
		{Op: "report", Perf: 12.5, Characteristics: []float64{0.8, 0.2}},
		{Op: "report", Perf: -3.25, hasID: true, id: 7, Characteristics: []float64{1, 2, 3}},
		{Op: "report", Perf: 41, Fidelity: 0.5, hasID: true, id: 1, Characteristics: []float64{0.5}},
		{Op: "report", Perf: 9.75, Fidelity: 1, Characteristics: []float64{0, 0.25, 0.5, 0.75}},
	}
	for _, m := range cases {
		var buf bytes.Buffer
		fw := frameWriter{w: bufio.NewWriter(&buf)}
		if err := fw.append(m); err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		fw.w.Flush()
		if buf.Bytes()[4] != opReportC {
			t.Fatalf("report with characteristics encoded as opcode 0x%02x, want 0x%02x", buf.Bytes()[4], opReportC)
		}
		fr := frameReader{r: bufio.NewReader(&buf)}
		got, err := fr.read()
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		wantFid := m.Fidelity
		if !fidelityOnWire(wantFid) {
			wantFid = 0 // full fidelity rides as an explicit zero
		}
		if got.Op != "report" || got.Perf != m.Perf || got.hasID != m.hasID || got.id != m.id ||
			got.Fidelity != wantFid || fmt.Sprint(got.Characteristics) != fmt.Sprint(m.Characteristics) {
			t.Errorf("round trip changed the report:\n was %+v\n now %+v", m, got)
		}
	}

	// Garbage payloads must be rejected as garbage frames, not crash.
	// The last case is the count-overflow attack: n = 2^61+1 makes n*8
	// wrap to exactly the 8 trailing bytes mod 2^64, so a naive n*8 length
	// check passes and make([]float64, n) panics on the connection
	// goroutine, killing the daemon.
	overflow := append([]byte{opReportC, 0}, make([]byte, 16)...)
	overflow = binary.AppendUvarint(overflow, 1<<61+1)
	overflow = append(overflow, make([]byte, 8)...)
	garbage := [][]byte{
		{opReportC},    // empty
		{opReportC, 0}, // no fidelity/perf
		append([]byte{opReportC, 0}, make([]byte, 16)...),               // n == 0
		append([]byte{opReportC, 0}, append(make([]byte, 16), 2, 0)...), // n claims 2, no data
		overflow, // n*8 wraps around 2^64
	}
	for _, body := range garbage {
		if _, err := new(frameReader).decode(body); err == nil {
			t.Errorf("garbage opReportC payload %v decoded without error", body)
		}
	}
}
