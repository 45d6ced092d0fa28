package server

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/faultnet"
	"harmony/internal/obs"
	"harmony/internal/search"
)

// TestTuneParallelMatchesLockstepQuality: a pipelined session with four
// workers must land on the exact same best configuration and evaluation
// count as the lockstep session — the speculative kernel only changes
// wall-clock, never the trajectory, for a deterministic objective.
func TestTuneParallelMatchesLockstepQuality(t *testing.T) {
	_, addr := startServer(t)

	lock := dial(t, addr)
	if _, err := lock.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true}); err != nil {
		t.Fatal(err)
	}
	serial, err := lock.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}

	pipe := dial(t, addr)
	if _, err := pipe.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true, Window: 4}); err != nil {
		t.Fatal(err)
	}
	if pipe.Window() != 4 {
		t.Fatalf("granted window = %d, want 4", pipe.Window())
	}
	parallel, err := pipe.TuneParallel(quadPeak, 4)
	if err != nil {
		t.Fatal(err)
	}

	if parallel.Perf != serial.Perf || parallel.Evals != serial.Evals {
		t.Errorf("pipelined best %+v != lockstep best %+v", parallel, serial)
	}
	if len(parallel.Values) != len(serial.Values) {
		t.Fatalf("value lengths differ: %v vs %v", parallel.Values, serial.Values)
	}
	for i := range serial.Values {
		if parallel.Values[i] != serial.Values[i] {
			t.Errorf("pipelined values %v != lockstep %v", parallel.Values, serial.Values)
			break
		}
	}
	if serial.Perf < 980 {
		t.Errorf("best = %+v, want perf >= 980", serial)
	}
}

// TestTuneParallelOverlapsMeasurements proves the pipeline is real: with a
// window of four and a slow measurement, several measurements must be in
// flight at once.
func TestTuneParallelOverlapsMeasurements(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true, Window: 4}); err != nil {
		t.Fatal(err)
	}
	var active, maxActive int32
	best, err := c.TuneParallel(func(cfg search.Config) float64 {
		cur := atomic.AddInt32(&active, 1)
		for {
			max := atomic.LoadInt32(&maxActive)
			if cur <= max || atomic.CompareAndSwapInt32(&maxActive, max, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&active, -1)
		return quadPeak(cfg)
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v", best)
	}
	if got := atomic.LoadInt32(&maxActive); got < 2 {
		t.Errorf("max concurrent measurements = %d, want >= 2", got)
	}
	if got := atomic.LoadInt32(&maxActive); got > 4 {
		t.Errorf("max concurrent measurements = %d, want <= window", got)
	}
}

// rawSession is a hand-driven wire connection for protocol-level tests.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSession{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (rs *rawSession) write(line string) {
	rs.t.Helper()
	if _, err := rs.conn.Write([]byte(line + "\n")); err != nil {
		rs.t.Fatalf("write %q: %v", line, err)
	}
}

// read returns the next raw reply line and its decoded form.
func (rs *rawSession) read() (string, message) {
	rs.t.Helper()
	rs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := rs.r.ReadString('\n')
	if err != nil {
		rs.t.Fatalf("read: %v (got %q)", err, line)
	}
	m, err := decode([]byte(strings.TrimSuffix(line, "\n")))
	if err != nil {
		rs.t.Fatalf("decode %q: %v", line, err)
	}
	return line, m
}

// TestPipelinedOutOfOrderReports drives the v2 wire by hand: three credits,
// three id-tagged configs, reports delivered in reverse order — the server
// must correlate each report to its configuration and keep dispatching.
func TestPipelinedOutOfOrderReports(t *testing.T) {
	_, addr := startServer(t)
	rs := rawDial(t, addr)

	rs.write(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }\n{ harmonyBundle y { int {0 60 1} } }","maxEvals":100,"improved":true,"window":3}`)
	line, reg := rs.read()
	if reg.Op != "registered" || reg.Window != 3 {
		t.Fatalf("registered reply = %q", line)
	}

	rs.write(`{"op":"fetch"}`)
	rs.write(`{"op":"fetch"}`)
	rs.write(`{"op":"fetch"}`)
	ids := make([]int, 3)
	cfgs := make([]search.Config, 3)
	for i := 0; i < 3; i++ {
		line, m := rs.read()
		if m.Op != "config" || !m.hasID {
			t.Fatalf("config %d = %q, want an id-tagged config", i, line)
		}
		ids[i], cfgs[i] = m.id, search.Config(m.Values)
	}
	if ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
		t.Fatalf("ids not distinct: %v", ids)
	}

	// Report in reverse order; no acks in v2 — the next configs are the
	// flow control.
	for i := 2; i >= 0; i-- {
		rs.write(fmt.Sprintf(`{"op":"report","id":%d,"perf":%v}`, ids[i], quadPeak(cfgs[i])))
	}
	rs.write(`{"op":"fetch"}`)
	line, m := rs.read()
	if m.Op != "config" || !m.hasID {
		t.Fatalf("post-report dispatch = %q, want config", line)
	}
	for _, id := range ids {
		if m.id == id {
			t.Fatalf("dispatched id %d reused a live id (%v)", m.id, ids)
		}
	}
	rs.write(`{"op":"quit"}`)
	if _, m := rs.read(); m.Op != "ok" {
		t.Fatalf("quit reply = %+v", m)
	}
}

// TestPipelinedReportUnknownIDTolerated: a report for an id that was never
// dispatched charges the failure budget but does not kill the session.
func TestPipelinedReportUnknownIDTolerated(t *testing.T) {
	s, addr := startServer(t)
	ends := make(chan SessionEnd, 4)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }

	rs := rawDial(t, addr)
	rs.write(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }","window":2}`)
	if _, reg := rs.read(); reg.Op != "registered" {
		t.Fatal("registration failed")
	}
	rs.write(`{"op":"report","id":99,"perf":1}`) // never dispatched
	rs.write(`{"op":"report","perf":1}`)         // no id at all
	rs.write(`{"op":"fetch"}`)                   // session must still work
	if line, m := rs.read(); m.Op != "config" {
		t.Fatalf("fetch after bogus reports = %q, want config", line)
	}
	rs.write(`{"op":"quit"}`)
	rs.read()
	end := waitEnd(t, ends)
	if end.Faults != 2 {
		t.Errorf("faults = %d, want 2 (unknown id + missing id)", end.Faults)
	}
	if end.Err != nil {
		t.Errorf("session err = %v, want tolerated", end.Err)
	}
}

// TestPipelinedDisconnectDepositsPartialTrace: a v2 session that vanishes
// with several configurations outstanding must still deposit the reported
// prefix into the experience store, observable as a warm follow-up session.
func TestPipelinedDisconnectDepositsPartialTrace(t *testing.T) {
	s, addr := startServer(t)
	ends := make(chan SessionEnd, 4)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }

	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{
		MaxEvals: 120, Improved: true, Window: 4,
		App: "pipe-partial", Characteristics: appChars,
	}); err != nil {
		t.Fatal(err)
	}
	// Prime the window: the 2-parameter initial simplex dispatches three
	// configurations concurrently.
	for i := 0; i < 4; i++ {
		if err := c.FetchAsync(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]search.Config{}
	for len(got) < 3 {
		m, err := c.recv()
		if err != nil {
			t.Fatalf("reading configs: %v", err)
		}
		if m.Op != "config" || !m.hasID {
			t.Fatalf("unexpected reply %+v", m)
		}
		got[m.id] = search.Config(m.Values)
	}
	// Report the first two; leave the third outstanding and vanish.
	for _, id := range []int{0, 1} {
		if err := c.ReportID(id, quadPeak(got[id])); err != nil {
			t.Fatal(err)
		}
	}
	c.conn.Close()

	end := waitEnd(t, ends)
	if end.Completed {
		t.Errorf("session end = %+v, want abnormal", end)
	}
	if !end.Deposited {
		t.Fatalf("partial trace not deposited: %+v", end)
	}

	// The deposited prefix warm-starts the next session of the same app.
	c2 := dial(t, addr)
	if _, err := c2.Register(quadRSL, RegisterOptions{
		MaxEvals: 120, Improved: true,
		App: "pipe-partial", Characteristics: appChars,
	}); err != nil {
		t.Fatal(err)
	}
	if !c2.WarmStarted() {
		t.Error("follow-up session not warm-started from the partial trace")
	}
	if best, err := c2.Tune(quadPeak); err != nil || best.Perf < 980 {
		t.Fatalf("follow-up: best=%+v err=%v", best, err)
	}
}

// TestV2ClientAgainstLockstepServer: a client asking for a window against a
// server configured for lockstep-only gets window 1 and TuneParallel
// transparently degrades to the sequential loop.
func TestV2ClientAgainstLockstepServer(t *testing.T) {
	s := NewServer()
	s.MaxWindow = -1 // lockstep only
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true, Window: 8}); err != nil {
		t.Fatal(err)
	}
	if c.Window() != 1 {
		t.Fatalf("granted window = %d, want 1 from a lockstep-only server", c.Window())
	}
	best, err := c.TuneParallel(quadPeak, 8)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v", best)
	}
}

// TestWindowCappedByServer: the granted window never exceeds the server cap.
func TestWindowCappedByServer(t *testing.T) {
	s := NewServer()
	s.MaxWindow = 2
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 80, Improved: true, Window: 64}); err != nil {
		t.Fatal(err)
	}
	if c.Window() != 2 {
		t.Fatalf("granted window = %d, want the server cap 2", c.Window())
	}
	if best, err := c.TuneParallel(quadPeak, 64); err != nil || best.Perf < 980 {
		t.Fatalf("capped session: best=%+v err=%v", best, err)
	}
}

// TestV1LockstepExchangeByteCompat pins backward compatibility at the wire
// level: a registration without a window must produce replies with no v2
// fields at all — no "window" in registered, no "id" in config — and the
// lockstep ok-ack after each report.
func TestV1LockstepExchangeByteCompat(t *testing.T) {
	_, addr := startServer(t)
	rs := rawDial(t, addr)

	rs.write(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }\n{ harmonyBundle y { int {0 60 1} } }","maxEvals":60,"improved":true}`)
	line, reg := rs.read()
	if reg.Op != "registered" {
		t.Fatalf("reply = %q", line)
	}
	if strings.Contains(line, `"window"`) || strings.Contains(line, `"id"`) {
		t.Fatalf("v1 registered reply leaked v2 fields: %q", line)
	}

	for i := 0; i < 5; i++ {
		rs.write(`{"op":"fetch"}`)
		line, m := rs.read()
		if m.Op == "best" {
			break
		}
		if m.Op != "config" {
			t.Fatalf("fetch reply = %q", line)
		}
		if strings.Contains(line, `"id"`) || strings.Contains(line, `"window"`) {
			t.Fatalf("v1 config leaked v2 fields: %q", line)
		}
		rs.write(fmt.Sprintf(`{"op":"report","perf":%v}`, quadPeak(search.Config(m.Values))))
		if line, m := rs.read(); m.Op != "ok" {
			t.Fatalf("report ack = %q, want lockstep ok", line)
		}
	}
}

// TestPipelinedGarbageWithinBudget: raw garbage lines on a pipelined wire
// are charged against the failure budget and skipped; the session still
// delivers the right answer through TuneParallel.
func TestPipelinedGarbageWithinBudget(t *testing.T) {
	_, addr := startServer(t)
	fc, err := faultnet.Dial(addr, 2*time.Second, faultnet.Plan{
		GarbageBeforeWrite: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	c := NewClientConn(fc)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true, Window: 4}); err != nil {
		t.Fatal(err)
	}
	best, err := c.TuneParallel(quadPeak, 4)
	if err != nil {
		t.Fatalf("garbage within budget killed the pipelined session: %v", err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v", best)
	}
}

// TestPipelinedMetrics: the pipeline gauges move — configs served and
// reports received grow, the batch-size histogram records dispatches deeper
// than 1, and nothing is left on the outstanding gauge after the sessions
// end.
func TestPipelinedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer()
	s.Metrics = NewMetrics(reg)
	ends := make(chan SessionEnd, 4)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 80, Improved: true, Window: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TuneParallel(quadPeak, 4); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitEnd(t, ends)

	if v := s.Metrics.ConfigsServed.Value(); v == 0 {
		t.Error("configs_served stayed zero")
	}
	if v := s.Metrics.ReportsReceived.Value(); v == 0 {
		t.Error("reports_received stayed zero")
	}
	// The session must have actually pipelined: the first bucket is le="1".
	if h := s.Metrics.BatchSize; h.Count()-h.BucketCounts()[0] == 0 {
		t.Errorf("batch_size count=%d, all at depth 1: no dispatch was pipelined", h.Count())
	}
	if v := s.Metrics.SessionOutstanding.Value(); v != 0 {
		t.Errorf("session_outstanding = %v after session end, want 0", v)
	}
}

// dispatchSequence runs one raw window-4 session over the given framing (2
// for v2 JSON, 3 for v3 frames) and returns every config frame the server
// sent, as "id:values@fidelity". The client holds four fetch credits and,
// whenever the server pauses for reports, answers the configs it holds —
// newest first, or oldest first — at the fidelity each asked for, and
// refills its credits.
func dispatchSequence(t *testing.T, addr string, proto int, newestFirst bool) []string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	var tr transport = newJSONWire(br, w, nil, nil)
	if proto == 3 {
		if _, err := conn.Write(v3Magic[:]); err != nil {
			t.Fatal(err)
		}
		tr = newBinWire(br, w, nil, nil)
	}
	// Writes may fail once the server has sent best and hung up; the reader
	// tells those runs apart from broken ones.
	send := func(m message) { tr.send(m) } //nolint:errcheck
	in, done := make(chan message), make(chan struct{})
	defer close(done)
	go func() {
		defer close(in)
		for {
			m, err := tr.recv()
			if err != nil {
				return
			}
			select {
			case in <- m:
			case <-done:
				return
			}
		}
	}()
	send(message{Op: "register", RSL: quadRSL, MaxEvals: 60, Improved: true, Window: 4})
	if m := <-in; m.Op != "registered" || m.Window != 4 {
		t.Fatalf("register reply = %+v", m)
	}
	for i := 0; i < 4; i++ {
		send(message{Op: "fetch"})
	}
	var seq []string
	var held []message
	for {
		select {
		case m, ok := <-in:
			switch {
			case !ok:
				t.Fatal("connection closed before best")
			case m.Op == "best":
				return seq
			case m.Op != "config" || !m.hasID:
				t.Fatalf("unexpected frame %+v", m)
			}
			seq = append(seq, fmt.Sprintf("%d:%v@%v", m.id, m.Values, m.Fidelity))
			held = append(held, m)
		case <-time.After(2 * time.Millisecond):
			// The server waits for reports: answer what it sent.
			for k := range held {
				i := k
				if newestFirst {
					i = len(held) - 1 - k
				}
				r := message{Op: "report", Perf: fidelityQuad(search.Config(held[i].Values), held[i].Fidelity), Fidelity: held[i].Fidelity}
				r.id, r.hasID = held[i].id, true
				send(r)
			}
			for range held {
				send(message{Op: "fetch"})
			}
			held = held[:0]
		}
	}
}

// TestPipelinedDispatchOrderDeterministic: the kernel hands each batch to the
// session in one call, so the configs of a batch go out in the batch's own
// order, whatever order their reports come back in. The whole sequence of
// config frames — ids, values and fidelities — is the same on every run,
// on both framings and for either report order. The hyperband case runs
// the multi-fidelity kernel with a session-scope cache, as the
// hyperband-json workload does, so its memo promotes full-fidelity truths
// over reduced rungs on the pipelined path.
func TestPipelinedDispatchOrderDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Server)
	}{
		{"simplex", nil},
		{"hyperband", func(s *Server) {
			s.SearchKernel = KernelHyperband
			s.EvalCache = CacheSession
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServerWith(t, tc.setup)
			want := dispatchSequence(t, addr, 2, true)
			if len(want) < 20 {
				t.Fatalf("session dispatched only %d configs", len(want))
			}
			for run := 0; run < 3; run++ {
				for _, proto := range []int{2, 3} {
					for _, newestFirst := range []bool{true, false} {
						if got := dispatchSequence(t, addr, proto, newestFirst); !slices.Equal(got, want) {
							t.Fatalf("run %d, proto %d, newest first %v: dispatch sequence diverged\ngot  %v\nwant %v",
								run, proto, newestFirst, got, want)
						}
					}
				}
			}
		})
	}
}
