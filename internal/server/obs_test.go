package server

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"harmony/internal/faultnet"
	"harmony/internal/obs"
	"harmony/internal/search"
)

// TestFaultMatrixMetricsAndTrace is the observability acceptance gate: an
// instrumented server run through PR 1's fault scenarios must (a) surface
// nonzero harmony_session_failures_total and fault-budget spend in the
// Prometheus exposition, and (b) leave a JSONL trace whose event stream,
// demultiplexed by session ID, reconstructs the best-performance trajectory
// the client was told about.
func TestFaultMatrixMetricsAndTrace(t *testing.T) {
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	sink := obs.NewJSONL(&traceBuf)
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, slog.LevelDebug, "text")
	if err != nil {
		t.Fatal(err)
	}

	s := NewServer()
	s.IdleTimeout = 300 * time.Millisecond
	s.WriteTimeout = 2 * time.Second
	s.Logger = logger
	s.Metrics = NewMetrics(reg)
	s.Tracer = sink
	ends := make(chan SessionEnd, 16)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Session 1 — garbage within budget: completes, but charges the failure
	// budget (nonzero harmony_session_faults_total).
	fc1, err := faultnet.Dial(addr.String(), 2*time.Second, faultnet.Plan{GarbageBeforeWrite: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewClientConn(fc1)
	if _, err := c1.Register(quadRSL, RegisterOptions{
		MaxEvals: 120, Improved: true, App: "obs-garbage", Characteristics: appChars,
	}); err != nil {
		t.Fatal(err)
	}
	best1, err := c1.Tune(quadPeak)
	if err != nil {
		t.Fatalf("garbage-within-budget session died: %v", err)
	}
	fc1.Close()
	end1 := waitEnd(t, ends)
	if !end1.Completed || end1.App != "obs-garbage" {
		t.Fatalf("end1 = %+v, want completed obs-garbage", end1)
	}
	if end1.Faults == 0 {
		t.Error("garbage session charged no faults")
	}
	if end1.ID == "" {
		t.Fatal("session end carries no ID")
	}

	// Session 2 — read stall: the server's idle timeout fires and the
	// session ends with a terminal error (harmony_session_failures_total).
	fc2, err := faultnet.Dial(addr.String(), 2*time.Second, faultnet.Plan{StallAfterWrites: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc2.Close() })
	go func() {
		c2 := NewClientConn(fc2)
		if _, err := c2.Register(quadRSL, RegisterOptions{
			MaxEvals: 120, Improved: true, App: "obs-stall",
		}); err != nil {
			return
		}
		c2.Tune(quadPeak) //nolint:errcheck // the fault kills this session
	}()
	end2 := waitEnd(t, ends)
	if end2.Completed || end2.Err == nil {
		t.Fatalf("end2 = %+v, want terminal error", end2)
	}
	fc2.Close()

	// Session 3 — connection drop after real measurements: abnormal
	// disconnect with a partial-trace deposit and its warn-level record.
	fc3, err := faultnet.Dial(addr.String(), 2*time.Second, faultnet.Plan{DropAfterWrites: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc3.Close() })
	go func() {
		c3 := NewClientConn(fc3)
		if _, err := c3.Register(quadRSL, RegisterOptions{
			MaxEvals: 120, Improved: true, App: "obs-drop", Characteristics: appChars,
		}); err != nil {
			return
		}
		c3.Tune(quadPeak) //nolint:errcheck // the fault kills this session
	}()
	end3 := waitEnd(t, ends)
	if end3.Completed || !end3.Deposited {
		t.Fatalf("end3 = %+v, want failed-but-deposited", end3)
	}
	fc3.Close()

	// Quiesce before inspecting shared state (log buffer, trace sink).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Metrics. The handles are shared via re-registration. ---
	count := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := count("harmony_sessions_started_total"); got != 3 {
		t.Errorf("sessions started = %d, want 3", got)
	}
	if got := count("harmony_session_failures_total"); got < 1 {
		t.Error("harmony_session_failures_total = 0, want nonzero")
	}
	if got := count("harmony_session_faults_total"); got < 1 {
		t.Error("harmony_session_faults_total = 0, want nonzero")
	}
	if got := count("harmony_sessions_completed_total"); got != 1 {
		t.Errorf("sessions completed = %d, want 1", got)
	}
	if got := count("harmony_partial_deposits_total"); got != 1 {
		t.Errorf("partial deposits = %d, want 1", got)
	}
	if got := count("harmony_deposits_total"); got < 2 {
		t.Errorf("deposits = %d, want >= 2", got)
	}
	cs, rr := count("harmony_configs_served_total"), count("harmony_reports_received_total")
	if cs == 0 || rr == 0 {
		t.Errorf("configs served = %d, reports received = %d, want nonzero", cs, rr)
	}
	if g := reg.Gauge("harmony_sessions_active", "").Value(); g != 0 {
		t.Errorf("sessions active after close = %g, want 0", g)
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	for _, want := range []string{
		"# TYPE harmony_session_failures_total counter",
		"# TYPE harmony_session_faults_total counter",
		"# TYPE harmony_configs_served_total counter",
		"# TYPE harmony_reports_received_total counter",
		fmt.Sprintf("\nharmony_configs_served_total %d\n", cs),
		fmt.Sprintf("\nharmony_reports_received_total %d\n", rr),
		"# TYPE harmony_sessions_active gauge",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// --- Structured log: the abnormal disconnect warned with the partial
	// trace length and session ID. ---
	logs := logBuf.String()
	if !strings.Contains(logs, "abnormal disconnect") || !strings.Contains(logs, "trace_len=") {
		t.Errorf("partial-deposit warn record missing from logs:\n%s", logs)
	}
	if !strings.Contains(logs, "session="+end3.ID) {
		t.Errorf("logs do not carry session ID %s:\n%s", end3.ID, logs)
	}

	// --- Trace: demultiplex by session ID and reconstruct trajectories. ---
	events, err := obs.ReadEvents(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	bySession := map[string][]search.Event{}
	for _, e := range events {
		if e.Session == "" {
			t.Fatalf("unstamped event in shared trace: %+v", e)
		}
		bySession[e.Session] = append(bySession[e.Session], e)
	}

	// The completed session's trajectory ends at the best the client was
	// told about.
	traj := search.BestTrajectory(bySession[end1.ID], search.Maximize)
	if len(traj) == 0 {
		t.Fatalf("no measurements traced for session %s", end1.ID)
	}
	if got := traj[len(traj)-1]; got != best1.Perf {
		t.Errorf("reconstructed best = %g, client was told %g", got, best1.Perf)
	}
	if len(traj) != best1.Evals {
		t.Errorf("trace has %d measurements, client was told %d evals", len(traj), best1.Evals)
	}

	// Its failure-budget charges are in the same stream.
	var budgetCharges int
	for _, e := range bySession[end1.ID] {
		if e.Type == search.EventBudget {
			budgetCharges++
			if e.Note == "" {
				t.Errorf("budget charge without a note: %+v", e)
			}
		}
	}
	if budgetCharges != end1.Faults {
		t.Errorf("trace has %d budget charges, session end reports %d", budgetCharges, end1.Faults)
	}

	// The dropped session left a usable prefix: its partial trajectory is
	// nonempty (real measurements happened before the drop).
	if traj3 := search.BestTrajectory(bySession[end3.ID], search.Maximize); len(traj3) == 0 {
		t.Errorf("dropped session %s traced no measurements before the fault", end3.ID)
	}
}

// TestServerMetricsNil: an un-instrumented server (nil Metrics, Logger,
// Tracer) still works — the nil fast paths must cover every touchpoint.
func TestServerMetricsNil(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v", best)
	}
}

// TestDialRetryLogging: failed dial attempts produce structured warn records
// with the attempt ordinal and chosen backoff.
func TestDialRetryLogging(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, slog.LevelDebug, "text")
	if err != nil {
		t.Fatal(err)
	}
	// Nothing listens on this address (reserved then released).
	_, err = DialWithOptions("127.0.0.1:1", DialOptions{
		Timeout: 100 * time.Millisecond,
		Retries: 2,
		Backoff: time.Millisecond,
		Seed:    7,
		Logger:  logger,
	})
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	logs := buf.String()
	if !strings.Contains(logs, "dial failed; backing off") {
		t.Errorf("no per-attempt warn records:\n%s", logs)
	}
	if !strings.Contains(logs, "dial exhausted all attempts") || !strings.Contains(logs, "attempts=3") {
		t.Errorf("no exhaustion record:\n%s", logs)
	}
}

// TestSessionCountersReconcile: the daemon's own session counters add up
// across every framing. Plain v2 and v3 sessions, a mux connection carrying
// three sessions (one pipelined) and a plain connection that closes before
// registering each end exactly once: after each group ends, started equals
// completed plus failures, the active gauge is back at zero, and the only
// failure is the connection that never registered.
func TestSessionCountersReconcile(t *testing.T) {
	ends := make(chan SessionEnd, 6) // one per session
	s, addr := startServerWith(t, func(s *Server) {
		s.Metrics = NewMetrics(obs.NewRegistry())
		s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	})
	m := s.Metrics

	tune := func(c *Client, opts RegisterOptions) {
		t.Helper()
		if _, err := c.Register(quadRSL, opts); err != nil {
			t.Fatal(err)
		}
		var err error
		if opts.Window > 1 {
			_, err = c.TuneParallel(quadPeak, opts.Window)
		} else {
			_, err = c.Tune(quadPeak)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	plain := func(proto int) {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tune(c, RegisterOptions{MaxEvals: 40, Improved: true, Proto: proto})
	}
	// reconcile waits for n more session ends, then checks the counters
	// against the running totals. It returns the last end.
	var started, failures uint64
	reconcile := func(stage string, n, failed int) (end SessionEnd) {
		t.Helper()
		for i := 0; i < n; i++ {
			end = waitEnd(t, ends)
		}
		started += uint64(n)
		failures += uint64(failed)
		// The active gauge drops after OnSessionEnd returns.
		deadline := time.Now().Add(5 * time.Second)
		for m.SessionsActive.Value() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		st, co, fa := m.SessionsStarted.Value(), m.SessionsCompleted.Value(), m.SessionFailures.Value()
		if st != started || fa != failures || st != co+fa {
			t.Errorf("%s: started=%d completed=%d failures=%d, want started=%d failures=%d and started == completed+failures",
				stage, st, co, fa, started, failures)
		}
		if a := m.SessionsActive.Value(); a != 0 {
			t.Errorf("%s: sessions active = %g, want 0", stage, a)
		}
		return end
	}

	plain(2)
	reconcile("v2", 1, 0)
	plain(3)
	reconcile("v3", 1, 0)

	mx, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		opts := RegisterOptions{MaxEvals: 40, Improved: true, Proto: 3}
		if i == 2 {
			opts.Window = 4
		}
		c := mx.Session()
		tune(c, opts)
		c.Close()
	}
	mx.Close()
	reconcile("mux", 3, 0)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if end := reconcile("no register", 1, 1); !errors.Is(end.Err, errNoRegister) {
		t.Errorf("unregistered connection ended with %v, want errNoRegister", end.Err)
	}

	if v := m.ProtocolErrors.Value(); v != 0 {
		t.Errorf("protocol errors = %d, want 0", v)
	}
}
