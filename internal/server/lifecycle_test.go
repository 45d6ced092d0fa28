package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/obs"
	"harmony/internal/search"
)

// flakyListener fails its first `fails` Accept calls with a transient error
// before delegating to the real listener — EMFILE pressure in miniature.
type flakyListener struct {
	net.Listener
	fails    int32
	accepted int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if atomic.AddInt32(&l.fails, -1) >= 0 {
		return nil, errors.New("accept tcp: too many open files")
	}
	conn, err := l.Listener.Accept()
	if err == nil {
		atomic.AddInt32(&l.accepted, 1)
	}
	return conn, err
}

// TestAcceptLoopSurvivesTransientErrors: transient Accept failures must be
// retried (with the retry counter ticking), not kill the accept loop — the
// old behaviour left a server that answered health checks but accepted
// nobody. The loop exits only when the listener actually closes.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 3}

	s := NewServer()
	s.Metrics = NewMetrics(obs.NewRegistry())
	s.wg.Add(1)
	go s.acceptLoop(fl)

	// A connection made while Accept is still failing sits in the backlog
	// and must be served once the retries get through.
	c := dial(t, ln.Addr().String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true}); err != nil {
		t.Fatalf("session refused after transient accept failures: %v", err)
	}
	best, err := c.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v", best)
	}
	if got := s.Metrics.AcceptRetries.Value(); got != 3 {
		t.Errorf("accept_retries = %d, want 3", got)
	}
	if got := atomic.LoadInt32(&fl.accepted); got < 1 {
		t.Errorf("accepted = %d, want >= 1", got)
	}

	// Closing the listener is the one legitimate exit.
	c.Close()
	ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop did not exit on listener close")
	}
}

// TestOversizedLineClassified: a wire line over the 1 MiB frame cap must be
// answered with a protocol error naming the cap, charged against the failure
// budget, and counted — not silently abort the session the way a bare
// bufio.ErrTooLong used to.
func TestOversizedLineClassified(t *testing.T) {
	huge := strings.Repeat("x", 2<<20)

	t.Run("mid-session", func(t *testing.T) {
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

		rs := rawDial(t, addr.String())
		rs.write(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }","max_evals":40}`)
		if _, m := rs.read(); m.Op != "registered" {
			t.Fatal("registration failed")
		}
		rs.write(`{"op":"x","pad":"` + huge + `"}`)
		line, m := rs.read()
		if m.Op != "error" || !strings.Contains(m.Msg, "1 MiB frame cap") {
			t.Fatalf("reply = %q, want a frame-cap protocol error", line)
		}
		end := waitEnd(t, ends)
		if end.Err == nil {
			t.Error("oversized line did not end the session with an error")
		}
		if end.Faults == 0 {
			t.Error("oversized line was not charged against the failure budget")
		}
		if got := s.Metrics.OversizedLines.Value(); got != 1 {
			t.Errorf("oversized_lines = %d, want 1", got)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
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

		rs := rawDial(t, addr.String())
		rs.write(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }","max_evals":40,"window":4}`)
		if _, m := rs.read(); m.Op != "registered" || m.Window != 4 {
			t.Fatal("v2 registration failed")
		}
		rs.write(`{"op":"x","pad":"` + huge + `"}`)
		line, m := rs.read()
		if m.Op != "error" || !strings.Contains(m.Msg, "1 MiB frame cap") {
			t.Fatalf("reply = %q, want a frame-cap protocol error", line)
		}
		end := waitEnd(t, ends)
		if end.Err == nil || end.Faults == 0 {
			t.Errorf("pipelined oversized end = %+v, want charged error", end)
		}
		if got := s.Metrics.OversizedLines.Value(); got != 1 {
			t.Errorf("oversized_lines = %d, want 1", got)
		}
	})

	t.Run("before-register", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := NewServer()
		s.Metrics = NewMetrics(reg)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })

		rs := rawDial(t, addr.String())
		rs.write(`{"op":"register","pad":"` + huge + `"}`)
		line, m := rs.read()
		if m.Op != "error" || !strings.Contains(m.Msg, "1 MiB frame cap") {
			t.Fatalf("reply = %q, want a frame-cap protocol error", line)
		}
		if got := s.Metrics.OversizedLines.Value(); got != 1 {
			t.Errorf("oversized_lines = %d, want 1", got)
		}
	})
}

// TestClientClassifiesOversizedServerReply: an over-cap line coming *from*
// the server is a broken conversation, not a dead transport — the client
// must surface ErrProtocol (retrying cannot help), not ErrServerGone.
func TestClientClassifiesOversizedServerReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		conn.Read(buf) // the register line
		// Reply with a 1.5 MiB line: over the client's scanner cap.
		conn.Write([]byte(`{"op":"registered","names":["` + strings.Repeat("x", 3<<19) + `"]}` + "\n"))
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClientConn(conn)
	_, err = c.Register(quadRSL, RegisterOptions{MaxEvals: 10})
	if err == nil {
		t.Fatal("oversized server reply accepted")
	}
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
	if errors.Is(err, ErrServerGone) {
		t.Errorf("err = %v, misclassified as a transport failure", err)
	}
	conn.Close()
	<-served
}

// TestCloseBoundedAgainstStalledServer: Close sends a best-effort quit; with
// no OpTimeout configured and a peer that never drains its socket, the write
// must be bounded by the internal deadline instead of hanging forever.
func TestCloseBoundedAgainstStalledServer(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	c := NewClientConn(clientSide)
	// No OpTimeout: before the fix this Close blocked indefinitely because
	// net.Pipe writes only complete when the peer reads — and it never does.
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- c.Close() }()
	select {
	case <-done:
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Errorf("Close took %v, want bounded by the quit deadline", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung against a stalled server")
	}
}

// stacks returns the stack of every live goroutine.
func stacks() [][]byte {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Split(buf, []byte("\n\n"))
}

// sessionGoroutines counts the live goroutines running this package's code,
// client or server, outside the tests themselves.
func sessionGoroutines() (all int) {
	for _, g := range stacks() {
		if bytes.Contains(g, []byte("harmony/internal/server.")) &&
			!bytes.Contains(g, []byte("harmony/internal/server.Test")) {
			all++
		}
	}
	return all
}

// settleGoroutines polls until sessionGoroutines is at most want, for up
// to five seconds, and returns the last count.
func settleGoroutines(want int) (all int) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if all = sessionGoroutines(); all <= want || time.Now().After(deadline) {
			return all
		}
	}
}

// serverShape classifies the server side's goroutines, bar the accept loop:
// sessions counts those running the session loop, kernels those running
// search code (a kernel on a goroutine of its own shows up here, but not in
// sessions), and extra everything else the server started.
func serverShape() (sessions, kernels int, extra []string) {
	for _, g := range stacks() {
		fromServer := bytes.Contains(g, []byte("harmony/internal/server.(*Server).")) ||
			bytes.Contains(g, []byte("created by harmony/internal/server.(*Server).")) ||
			bytes.Contains(g, []byte("created by harmony/internal/server.(*muxConn).")) ||
			bytes.Contains(g, []byte("created by harmony/internal/server.(*session)."))
		if !fromServer || bytes.Contains(g, []byte("(*Server).acceptLoop(")) {
			continue
		}
		session := bytes.Contains(g, []byte("harmony/internal/server.(*Server).serve("))
		if session {
			sessions++
		}
		if bytes.Contains(g, []byte("harmony/internal/search.")) || bytes.Contains(g, []byte("harmony/internal/mfsearch.")) {
			kernels++
		}
		switch {
		case session:
		case bytes.Contains(g, []byte("(*muxConn).demux(")):
			extra = append(extra, "demux")
		case bytes.Contains(g, []byte("(*corkedWriter).run(")):
			extra = append(extra, "writer")
		default:
			lines := strings.SplitN(string(g), "\n", 3)
			extra = append(extra, lines[len(lines)-2]) // the innermost frame
		}
	}
	slices.Sort(extra)
	return sessions, kernels, extra
}

// TestSessionGoroutineBudget pins the goroutines one session costs. The
// session's kernel runs on the session's own goroutine, and every session
// reads its wire there too: a plain session, lockstep or pipelined, starts
// no other goroutine, and a mux session adds only its connection's demux
// and corked writer. Whatever the framing, tearing down the client and the
// server returns the count to its baseline.
func TestSessionGoroutineBudget(t *testing.T) {
	cases := []struct {
		name          string
		proto, window int
		mux           bool
		extra         []string
	}{
		{"v1-json-lockstep", 2, 1, false, nil},
		{"v3-lockstep", 3, 1, false, nil},
		{"v2-json-window4", 2, 4, false, nil},
		{"v3-window4", 3, 4, false, nil},
		{"mux-lockstep", 3, 1, true, []string{"demux", "writer"}},
		{"mux-window4", 3, 4, true, []string{"demux", "writer"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := settleGoroutines(0)
			s := NewServer()
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var c *Client
			var mx *Mux
			if tc.mux {
				if mx, err = DialMux(addr.String(), 2*time.Second); err != nil {
					t.Fatal(err)
				}
				c = mx.Session()
			} else if c, err = Dial(addr.String(), 2*time.Second); err != nil {
				t.Fatal(err)
			}
			opts := RegisterOptions{MaxEvals: 60, Improved: true, Proto: tc.proto, Window: tc.window}
			if _, err := c.Register(quadRSL, opts); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var bad []string
			measure := func(cfg search.Config) float64 {
				time.Sleep(200 * time.Microsecond) // let the server reach its wait
				sessions, kernels, extra := serverShape()
				mu.Lock()
				if sessions != 1 || kernels != 1 || !slices.Equal(extra, tc.extra) {
					bad = append(bad, fmt.Sprintf("sessions=%d kernels=%d extra=%v", sessions, kernels, extra))
				}
				mu.Unlock()
				return quadPeak(cfg)
			}
			if _, err := c.TuneParallel(measure, tc.window); err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Errorf("server goroutines during the session: %v (want 1 session goroutine running the only kernel, extra %v)", bad[0], tc.extra)
			}
			c.Close()
			if mx != nil {
				mx.Close()
			}
			s.Close()
			if all := settleGoroutines(base); all > base {
				t.Errorf("%d goroutines after teardown, baseline %d", all, base)
			}
		})
	}
}
