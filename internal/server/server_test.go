package server

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"harmony/internal/search"
)

const quadRSL = `
{ harmonyBundle x { int {0 60 1} } }
{ harmonyBundle y { int {0 60 1} } }
`

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndTuningSession(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	names, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 150, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("names = %v", names)
	}
	best, err := c.Tune(func(cfg search.Config) float64 {
		dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
		return 1000 - dx*dx - dy*dy
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v, want perf >= 980", best)
	}
	if best.Evals <= 0 || best.Evals > 150 {
		t.Errorf("evals = %d", best.Evals)
	}
}

func TestMinimizeSession(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{Minimize: true, MaxEvals: 150, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(func(cfg search.Config) float64 {
		dx, dy := float64(cfg[0]-10), float64(cfg[1]-10)
		return dx*dx + dy*dy
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf > 20 {
		t.Errorf("minimized best = %+v, want <= 20", best)
	}
}

func TestRestrictedSessionStaysFeasible(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	restricted := `
{ harmonyBundle B { int {1 8 1} } }
{ harmonyBundle C { int {1 9-$B 1} } }
`
	if _, err := c.Register(restricted, RegisterOptions{MaxEvals: 80, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c.Tune(func(cfg search.Config) float64 {
		if cfg[0]+cfg[1] > 9 {
			t.Errorf("infeasible configuration offered: %v", cfg)
		}
		// Peak at the feasible corner B=4, C=5.
		db, dc := float64(cfg[0]-4), float64(cfg[1]-5)
		return 100 - db*db - dc*dc
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Values[0]+best.Values[1] > 9 {
		t.Errorf("best violates restriction: %v", best.Values)
	}
	if best.Perf < 95 {
		t.Errorf("restricted best = %+v", best)
	}
}

func TestRegisterErrors(t *testing.T) {
	_, addr := startServer(t)

	t.Run("bad rsl", func(t *testing.T) {
		c := dial(t, addr)
		if _, err := c.Register("{ nope }", RegisterOptions{}); err == nil {
			t.Error("bad RSL accepted")
		}
	})
	t.Run("bad direction", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte(`{"op":"register","rsl":"{ harmonyBundle x { int {0 5 1} } }","direction":"sideways"}` + "\n"))
		line, _ := bufio.NewReader(conn).ReadString('\n')
		if !strings.Contains(line, "error") {
			t.Errorf("reply = %q, want error", line)
		}
	})
}

func TestProtocolViolations(t *testing.T) {
	_, addr := startServer(t)

	send := func(conn net.Conn, s string) string {
		conn.Write([]byte(s + "\n"))
		line, _ := bufio.NewReader(conn).ReadString('\n')
		return line
	}

	t.Run("report before fetch", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		conn.Write([]byte(`{"op":"register","rsl":"{ harmonyBundle x { int {0 5 1} } }"}` + "\n"))
		r.ReadString('\n') // registered
		conn.Write([]byte(`{"op":"report","perf":1}` + "\n"))
		line, _ := r.ReadString('\n')
		if !strings.Contains(line, "error") {
			t.Errorf("reply = %q, want error", line)
		}
	})
	t.Run("first message not register", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if line := send(conn, `{"op":"fetch"}`); !strings.Contains(line, "error") {
			t.Errorf("reply = %q, want error", line)
		}
	})
	t.Run("malformed json", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if line := send(conn, `{broken`); !strings.Contains(line, "error") {
			t.Errorf("reply = %q, want error", line)
		}
	})
	t.Run("unknown op", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		conn.Write([]byte(`{"op":"register","rsl":"{ harmonyBundle x { int {0 5 1} } }"}` + "\n"))
		r.ReadString('\n')
		conn.Write([]byte(`{"op":"dance"}` + "\n"))
		line, _ := r.ReadString('\n')
		if !strings.Contains(line, "error") {
			t.Errorf("reply = %q, want error", line)
		}
	})
}

func TestClientDisconnectDoesNotWedgeServer(t *testing.T) {
	s, addr := startServer(t)

	// Start a session, fetch one config, then vanish without reporting.
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 50}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fetch(); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()

	// The server must still serve new sessions…
	c2 := dial(t, addr)
	if _, err := c2.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true}); err != nil {
		t.Fatal(err)
	}
	best, err := c2.Tune(func(cfg search.Config) float64 {
		return -float64(cfg[0]*cfg[0] + cfg[1]*cfg[1])
	})
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("no best from second session")
	}
	// …and Close must not hang on the abandoned session.
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung on abandoned session")
	}
}

func TestConcurrentSessions(t *testing.T) {
	_, addr := startServer(t)
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(peak float64) {
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 100, Improved: true}); err != nil {
				errs <- err
				return
			}
			best, err := c.Tune(func(cfg search.Config) float64 {
				dx, dy := float64(cfg[0])-peak, float64(cfg[1])-peak
				return 100 - dx*dx - dy*dy
			})
			if err != nil {
				errs <- err
				return
			}
			if best.Perf < 90 {
				errs <- &net.AddrError{Err: "bad best", Addr: addr}
				return
			}
			errs <- nil
		}(float64(10 + 10*i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := message{Op: "config", Values: []int{1, -2, 3}}
	b, err := appendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != "config" || len(got.Values) != 3 || got.Values[1] != -2 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decode([]byte(`{}`)); err == nil {
		t.Error("missing op accepted")
	}
}

func TestIdleTimeoutDisconnectsSilentClients(t *testing.T) {
	s := NewServer()
	s.IdleTimeout = 100 * time.Millisecond
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must hang up on its own.
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected disconnect, got data")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not disconnect the idle client within 3s")
	}

	// Active clients inside the timeout still work.
	c := dial(t, addr.String())
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 40, Improved: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tune(func(cfg search.Config) float64 {
		return -float64(cfg[0] * cfg[0])
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 2 MB line exceeds the scanner's 1 MB cap: the server must drop the
	// connection rather than buffer forever.
	huge := make([]byte, 2<<20)
	for i := range huge {
		huge[i] = 'x'
	}
	conn.Write([]byte(`{"op":"register","rsl":"`))
	conn.Write(huge)
	conn.Write([]byte("\"}\n"))
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err == nil {
		// Some replies are acceptable (an error message); the key point is
		// the server does not wedge — probe with a fresh session.
		_ = buf
	}
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 30}); err != nil {
		t.Fatal(err)
	}
}
