package server

import (
	"bufio"
	"bytes"
	"fmt"
	"log/slog"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/obs"
)

// syncBuffer is a bytes.Buffer safe for the server's concurrent logging.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// sessionLogLines masks what varies run to run in the records that carry a
// session — the time, the session IDs (numbered S1, S2, … in order of first
// appearance) and the peer's address — and returns those records in order.
func sessionLogLines(log string) []string {
	timeRE := regexp.MustCompile(`^time=\S+ `)
	idRE := regexp.MustCompile(`session=[0-9a-f]{16}\b`)
	remoteRE := regexp.MustCompile(`remote=127\.0\.0\.1:\d+`)
	ids := map[string]string{}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if !idRE.MatchString(line) {
			continue
		}
		line = timeRE.ReplaceAllString(line, "")
		line = idRE.ReplaceAllStringFunc(line, func(id string) string {
			if ids[id] == "" {
				ids[id] = fmt.Sprintf("session=S%d", len(ids)+1)
			}
			return ids[id]
		})
		out = append(out, remoteRE.ReplaceAllString(line, "remote=ADDR"))
	}
	return out
}

// TestSessionLogRecords pins every record a session logs at debug level —
// message, level, keys and values, in order — for a plain v3 session that
// completes, a JSON session that is charged a fault and then disconnects,
// and a session on a mux connection. A session's identity (session,
// remote, conn and, on a mux connection, mux_token) leads each record's
// attributes, as a logger.With would have put it.
func TestSessionLogRecords(t *testing.T) {
	var buf syncBuffer
	logger, err := obs.NewLogger(&buf, slog.LevelDebug, "text")
	if err != nil {
		t.Fatal(err)
	}
	ended := make(chan SessionEnd, 4)
	s, addr := startServerWith(t, func(s *Server) {
		s.Logger = logger
		s.OnSessionEnd = func(e SessionEnd) { ended <- e }
	})
	wait := func() {
		t.Helper()
		select {
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Fatal("session did not end")
		}
	}

	// A plain v3 session that runs to its best.
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{Proto: 3, Improved: true, MaxEvals: 12, App: "plain"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tune(quadPeak); err != nil {
		t.Fatal(err)
	}
	c.Close()
	wait()

	// A JSON session charged one fault for a garbage line, then cut off
	// mid-tune.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	for _, line := range []string{
		`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }","maxEvals":12,"app":"cut"}`,
		`{"op":"fetch"}`,
		`not json`,
	} {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		if line != `not json` {
			if _, err := rd.ReadString('\n'); err != nil {
				t.Fatal(err)
			}
		}
	}
	conn.Close()
	wait()

	// One session on a mux connection.
	mx, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ms := mx.Session()
	if _, err := ms.Register(quadRSL, RegisterOptions{Improved: true, MaxEvals: 12, App: "muxed"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Tune(quadPeak); err != nil {
		t.Fatal(err)
	}
	ms.Close()
	wait()
	mx.Close()
	// The mux connection ends once the server reads the close.
	for deadline := time.Now().Add(10 * time.Second); s.conns.Len() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("mux connection did not end")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		`level=DEBUG msg="session started" session=S1 remote=ADDR conn=conn-1`,
		`level=INFO msg="session registered" session=S1 remote=ADDR conn=conn-1 app=plain dim=2 warm=false improved=true max_evals=12 window=1`,
		`level=INFO msg="session ended" session=S1 remote=ADDR conn=conn-1 app=plain warm=false completed=true deposited=false faults=0`,
		`level=DEBUG msg="session started" session=S2 remote=ADDR conn=conn-2`,
		`level=INFO msg="session registered" session=S2 remote=ADDR conn=conn-2 app=cut dim=1 warm=false improved=false max_evals=12 window=1`,
		`level=WARN msg="tolerated fault" session=S2 remote=ADDR conn=conn-2 fault=1 budget=3 what="server: malformed message: invalid character 'o' in literal null (expecting 'u')"`,
		`level=WARN msg="abnormal disconnect: partial trace" session=S2 remote=ADDR conn=conn-2 trace_len=0 deposited=false app=cut`,
		`level=INFO msg="session ended" session=S2 remote=ADDR conn=conn-2 app=cut warm=false completed=false deposited=false faults=1`,
		`level=DEBUG msg="session started" session=S3 remote=ADDR conn=conn-3`,
		`level=INFO msg="session registered" session=S3 remote=ADDR conn=conn-3 mux_token=1 app=muxed dim=2 warm=false improved=true max_evals=12 window=1`,
		`level=INFO msg="session ended" session=S3 remote=ADDR conn=conn-3 mux_token=1 app=muxed warm=false completed=true deposited=false faults=0`,
		`level=DEBUG msg="mux connection ended" session=S3 remote=ADDR conn=conn-3`,
	}
	got := sessionLogLines(buf.String())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("session log records:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
