package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/obs"
	"harmony/internal/search"
)

// startServerWith configures a server before it listens — Server fields
// must not move once connections can arrive.
func startServerWith(t *testing.T, setup func(*Server)) (*Server, string) {
	t.Helper()
	s := NewServer()
	if setup != nil {
		setup(s)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// --- capture plumbing -------------------------------------------------------

// captureConn records every byte crossing a connection in both directions —
// the instrument behind the byte-pinning property.
type captureConn struct {
	net.Conn
	mu    sync.Mutex
	read  bytes.Buffer // server → client
	wrote bytes.Buffer // client → server
}

func (c *captureConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *captureConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wrote.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *captureConn) snapshot() (toServer, toClient []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.wrote.Bytes()...), append([]byte(nil), c.read.Bytes()...)
}

// rawFrame is one captured v3 frame body (opcode + token? + payload).
type rawFrame struct {
	op   byte
	tok  uint64 // only on mux streams
	body []byte // payload with the token stripped
}

// parseFrames splits a captured byte stream into frames, stripping the
// 4-byte magic when present and, for mux streams, the session token.
func parseFrames(t *testing.T, raw []byte, mux bool) []rawFrame {
	t.Helper()
	if len(raw) >= 4 && raw[0] == v3Magic[0] {
		if !bytes.Equal(raw[:4], v3Magic[:]) {
			t.Fatalf("stream leads with %x, want the v3 magic", raw[:4])
		}
		raw = raw[4:]
	}
	var frames []rawFrame
	for len(raw) > 0 {
		if len(raw) < 4 {
			t.Fatalf("trailing %d bytes are not a frame header", len(raw))
		}
		n := binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		if uint32(len(raw)) < n || n == 0 {
			t.Fatalf("frame claims %d bytes, %d remain", n, len(raw))
		}
		body := raw[:n]
		raw = raw[n:]
		f := rawFrame{op: body[0], body: body[1:]}
		// The negotiation register is the one plain frame on a mux stream.
		if mux && !(f.op == opRegister && len(frames) == 0) {
			tok, k := binary.Uvarint(body[1:])
			if k <= 0 {
				t.Fatalf("mux frame 0x%02x: malformed token", f.op)
			}
			f.tok, f.body = tok, body[1+k:]
		}
		frames = append(frames, rawFrame{op: f.op, tok: f.tok, body: append([]byte(nil), f.body...)})
	}
	return frames
}

// --- byte-pinning: single-session mux ≡ plain v3 ---------------------------

// TestMuxSingleSessionBytePinned is the compatibility guarantee behind the
// v4-mux rollout: a mux connection hosting exactly one session must produce
// the identical frame sequence as an un-muxed v3 connection — same opcodes,
// same payload bytes — differing only by the session token on each frame
// and the "mux":true field on the negotiation register envelope itself.
func TestMuxSingleSessionBytePinned(t *testing.T) {
	opts := RegisterOptions{MaxEvals: 80, Improved: true, Proto: 3}

	runPlain := func() *captureConn {
		_, addr := startServer(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cc := &captureConn{Conn: conn}
		c := NewClientConn(cc)
		t.Cleanup(func() { conn.Close() })
		if _, err := c.Register(quadRSL, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Tune(quadPeak); err != nil {
			t.Fatal(err)
		}
		return cc
	}
	runMux := func() *captureConn {
		_, addr := startServer(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cc := &captureConn{Conn: conn}
		mx := NewMux(cc)
		t.Cleanup(func() { mx.Close() })
		c := mx.Session()
		if _, err := c.Register(quadRSL, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Tune(quadPeak); err != nil {
			t.Fatal(err)
		}
		// The capture records a write after it returns, so the last flush
		// can still be unrecorded when the reply to it arrives; Close
		// returns only once the writer goroutine has exited.
		mx.Close()
		return cc
	}

	plain, mux := runPlain(), runMux()
	pOut, pIn := plain.snapshot()
	mOut, mIn := mux.snapshot()

	compare := func(dir string, plainRaw, muxRaw []byte, muxIsClient bool) {
		pf := parseFrames(t, plainRaw, false)
		mf := parseFrames(t, muxRaw, true)
		if len(pf) != len(mf) {
			t.Fatalf("%s: %d plain frames vs %d mux frames", dir, len(pf), len(mf))
		}
		for i := range pf {
			p, m := pf[i], mf[i]
			if p.op != m.op {
				t.Fatalf("%s frame %d: opcode 0x%02x vs 0x%02x", dir, i, p.op, m.op)
			}
			if m.op == opRegister && muxIsClient && i == 0 {
				// The negotiation envelope differs by exactly the mux field:
				// compare decoded with Mux normalized.
				var pm, mm message
				if err := json.Unmarshal(p.body, &pm); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(m.body, &mm); err != nil {
					t.Fatal(err)
				}
				if !mm.Mux {
					t.Fatalf("%s: negotiation register lacks mux:true", dir)
				}
				mm.Mux = false
				if fmt.Sprintf("%+v", pm) != fmt.Sprintf("%+v", mm) {
					t.Fatalf("%s: register envelopes diverge beyond mux:\n plain %+v\n mux   %+v", dir, pm, mm)
				}
				continue
			}
			if m.tok != muxToken1 {
				t.Fatalf("%s frame %d (op 0x%02x): token %d, want %d", dir, i, m.op, m.tok, muxToken1)
			}
			if !bytes.Equal(p.body, m.body) {
				t.Fatalf("%s frame %d (op 0x%02x): payloads diverge\n plain %x\n mux   %x", dir, i, p.op, p.body, m.body)
			}
		}
	}
	compare("client→server", pOut, mOut, true)
	compare("server→client", pIn, mIn, false)
}

// --- transcript equivalence: N mux sessions ≡ N plain connections ----------

// muxObjective gives each session its own deterministic peak so transcripts
// are distinguishable per session.
func muxObjective(i int) func(search.Config) float64 {
	px, py := 8+5*i, 50-4*i
	return func(cfg search.Config) float64 {
		dx, dy := float64(cfg[0]-px), float64(cfg[1]-py)
		return 1000 - dx*dx - dy*dy
	}
}

// TestMuxTranscriptEquivalence is the multiplexing property test: N
// sessions interleaved over one mux connection must produce exactly the
// per-session fetch/report sequences and final bests that N un-muxed v3
// connections produce — multiplexing changes transport packing, never any
// session's tuning trajectory.
func TestMuxTranscriptEquivalence(t *testing.T) {
	const n = 6
	run := func(session func(t *testing.T, i int) *Client) []transcript {
		trs := make([]transcript, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := session(t, i)
				objective := muxObjective(i)
				var tr transcript
				best, err := c.Tune(func(cfg search.Config) float64 {
					perf := objective(cfg)
					tr.configs = append(tr.configs, append([]int(nil), cfg...))
					tr.perfs = append(tr.perfs, perf)
					return perf
				})
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				tr.best = *best
				trs[i] = tr
			}(i)
		}
		wg.Wait()
		return trs
	}
	register := func(t *testing.T, c *Client, i int) {
		t.Helper()
		opts := RegisterOptions{MaxEvals: 60 + 10*i, Improved: i%2 == 0, Proto: 3}
		if _, err := c.Register(quadRSL, opts); err != nil {
			t.Fatalf("session %d register: %v", i, err)
		}
	}

	// N plain v3 connections on one server.
	_, plainAddr := startServer(t)
	plain := run(func(t *testing.T, i int) *Client {
		c := dial(t, plainAddr)
		register(t, c, i)
		return c
	})

	// N sessions over ONE mux connection on a fresh server.
	_, muxAddr := startServer(t)
	mx, err := DialMux(muxAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mx.Close() })
	var regMu sync.Mutex
	muxed := run(func(t *testing.T, i int) *Client {
		c := mx.Session()
		// Serialize registrations only so session i always gets token i+1;
		// tuning afterwards interleaves freely.
		regMu.Lock()
		defer regMu.Unlock()
		register(t, c, i)
		return c
	})

	for i := 0; i < n; i++ {
		if !sameTranscript(plain[i], muxed[i]) {
			t.Errorf("session %d transcripts diverge:\n plain best %+v (%d evals)\n mux   best %+v (%d evals)",
				i, plain[i].best, len(plain[i].configs), muxed[i].best, len(muxed[i].configs))
		}
	}
	if errs := mx.ConnErrors(); errs != 0 {
		t.Errorf("mux connection recorded %d connection-scope errors", errs)
	}
}

// --- abnormal disconnect: every attached session deposits ------------------

// TestMuxMidFrameDisconnectDepositsAll: a mux connection dying mid-frame
// must end every attached session abnormally, and each session that
// registered characteristics and completed measurements must deposit its
// partial trace — one lost transport, K preserved experiences (§4.2).
func TestMuxMidFrameDisconnectDepositsAll(t *testing.T) {
	const k = 3
	ends := make(chan SessionEnd, k)
	_, addr := startServerWith(t, func(s *Server) {
		s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mx := NewMux(conn)
	t.Cleanup(func() { mx.Close() })

	for i := 0; i < k; i++ {
		c := mx.Session()
		opts := RegisterOptions{
			MaxEvals: 500, Improved: true, Proto: 3,
			App: "mux-crash", Characteristics: []float64{float64(i + 1), 2},
		}
		if _, err := c.Register(quadRSL, opts); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		// One full measurement per session, confirmed committed: the reply
		// to report+fetch is the next config, so by the time it arrives the
		// report is in the trace.
		cfg, done, err := c.Fetch()
		if err != nil || done {
			t.Fatalf("session %d fetch: done=%v err=%v", i, done, err)
		}
		if _, done, err = c.ReportAndFetch(quadPeak(cfg)); err != nil || done {
			t.Fatalf("session %d report: done=%v err=%v", i, done, err)
		}
	}

	// Kill the shared connection mid-frame: a header claiming 64 bytes that
	// never arrive. The mux writer is idle (every session is between
	// exchanges), so the truncated frame is the stream's last word.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 64)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	for i := 0; i < k; i++ {
		end := waitEnd(t, ends)
		if end.Completed {
			t.Errorf("session %s completed through a dead transport", end.ID)
		}
		if !end.Deposited {
			t.Errorf("session %s (app %s) did not deposit its partial trace", end.ID, end.App)
		}
	}
}

// --- raw mux driver: unknown tokens, framed errors -------------------------

// writeMuxFrame emits one tokened frame.
func (rv *rawV3) writeMuxFrame(op byte, tok uint64, body []byte) {
	rv.t.Helper()
	tb := binary.AppendUvarint(nil, tok)
	f := make([]byte, 4, 5+len(tb)+len(body))
	binary.LittleEndian.PutUint32(f, uint32(1+len(tb)+len(body)))
	f = append(f, op)
	f = append(f, tb...)
	f = append(f, body...)
	if _, err := rv.conn.Write(f); err != nil {
		rv.t.Fatalf("write mux frame 0x%02x: %v", op, err)
	}
}

// readMuxFrame returns the next frame's token and decoded message.
func (rv *rawV3) readMuxFrame() (uint64, message) {
	rv.t.Helper()
	rv.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(rv.r, hdr[:]); err != nil {
		rv.t.Fatalf("read mux frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	body := make([]byte, n)
	if _, err := io.ReadFull(rv.r, body); err != nil {
		rv.t.Fatalf("read mux frame body: %v", err)
	}
	op := body[0]
	tok, k := binary.Uvarint(body[1:])
	if k <= 0 {
		rv.t.Fatalf("mux frame 0x%02x: malformed token", op)
	}
	body[k] = op
	m, err := new(frameReader).decode(body[k:])
	if err != nil {
		rv.t.Fatalf("decode mux frame: %v", err)
	}
	return tok, m
}

// registerMux negotiates mux with a plain register frame and confirms the
// tokened registered reply.
func (rv *rawV3) registerMux() {
	rv.t.Helper()
	body, err := json.Marshal(message{Op: "register", RSL: quadRSL, MaxEvals: 60, Improved: true, Mux: true})
	if err != nil {
		rv.t.Fatal(err)
	}
	rv.writeFrame(opRegister, body)
	tok, m := rv.readMuxFrame()
	if tok != muxToken1 || m.Op != "registered" {
		rv.t.Fatalf("mux register reply = token %d %+v", tok, m)
	}
}

// TestMuxUnknownTokenFramedError pins the unknown-token contract: a frame
// naming a session that was never attached is answered with an error frame
// on reserved token 0 — a framed per-connection error, never a connection
// kill — and the live sessions keep exchanging.
func TestMuxUnknownTokenFramedError(t *testing.T) {
	s, addr := startServerWith(t, func(s *Server) {
		s.Metrics = NewMetrics(obs.NewRegistry())
	})
	rv := rawDialV3(t, addr)
	rv.registerMux()

	rv.writeMuxFrame(opFetch, 99, nil)
	tok, m := rv.readMuxFrame()
	if tok != 0 || m.Op != "error" || !strings.Contains(m.Msg, "unknown mux session token 99") {
		t.Fatalf("unknown-token reply = token %d %+v, want an error on token 0", tok, m)
	}
	if v := s.Metrics.MuxUnknownTokens.Value(); v != 1 {
		t.Fatalf("MuxUnknownTokens = %d, want 1", v)
	}

	// Session 1 is unaffected: its fetch still gets a config.
	rv.writeMuxFrame(opFetch, muxToken1, nil)
	tok, m = rv.readMuxFrame()
	if tok != muxToken1 || m.Op != "config" {
		t.Fatalf("fetch after unknown token = token %d %+v, want a config on token 1", tok, m)
	}
}

// TestMuxRegisterTokenMisuse: register frames with the reserved token or a
// live token are connection-scope faults — framed token-0 errors charged to
// the connection budget, with the session table untouched.
func TestMuxRegisterTokenMisuse(t *testing.T) {
	_, addr := startServer(t)
	rv := rawDialV3(t, addr)
	rv.registerMux()

	regBody, err := json.Marshal(message{Op: "register", RSL: quadRSL, MaxEvals: 60})
	if err != nil {
		t.Fatal(err)
	}
	rv.writeMuxFrame(opRegister, 0, regBody)
	tok, m := rv.readMuxFrame()
	if tok != 0 || m.Op != "error" || !strings.Contains(m.Msg, "reserved session token 0") {
		t.Fatalf("token-0 register reply = token %d %+v", tok, m)
	}
	rv.writeMuxFrame(opRegister, muxToken1, regBody)
	tok, m = rv.readMuxFrame()
	if tok != 0 || m.Op != "error" || !strings.Contains(m.Msg, "reuses live session token") {
		t.Fatalf("live-token register reply = token %d %+v", tok, m)
	}
	// The original session still works.
	rv.writeMuxFrame(opFetch, muxToken1, nil)
	if tok, m = rv.readMuxFrame(); tok != muxToken1 || m.Op != "config" {
		t.Fatalf("fetch after register misuse = token %d %+v", tok, m)
	}
}

// --- eviction: flow-control credit exhaustion ------------------------------

// TestMuxDeliverEvictsOnCreditExhaustion drives the eviction path
// deterministically: a delivery finding the inbox full evicts exactly that
// session — framed error on its token, terminal condition through the inbox
// close, tombstoned token — and counts the stall.
func TestMuxDeliverEvictsOnCreditExhaustion(t *testing.T) {
	s := NewServer()
	reg := obs.NewRegistry()
	s.Metrics = NewMetrics(reg)
	mc := &muxConn{
		s: s, budget: 3,
		cw:    newCorkedWriter(nil, 8, nil, nil),
		table: map[uint64]*session{},
	}
	ms := &session{srv: s, token: 7, in: make(chan muxItem, 1)}
	mc.table[7] = ms

	mc.deliver(ms, muxItem{m: message{Op: "fetch"}}) // fills the credit
	mc.deliver(ms, muxItem{m: message{Op: "fetch"}}) // exhausts it: evict

	if _, live := mc.table[7]; live {
		t.Fatal("evicted session still in the table")
	}
	if !mc.tombstoned(7) {
		t.Fatal("evicted token not tombstoned")
	}
	if v := s.Metrics.MuxCreditStalls.Value(); v != 1 {
		t.Fatalf("MuxCreditStalls = %d, want 1", v)
	}
	if v := s.Metrics.MuxEvictions.Value(); v != 1 {
		t.Fatalf("MuxEvictions = %d, want 1", v)
	}
	// The queued error frame carries the session's token and the eviction
	// prefix the client library types on.
	sent := <-mc.cw.out
	for sent.Op != "error" {
		sent = <-mc.cw.out
	}
	if sent.sess != 7 || !strings.HasPrefix(sent.Msg, muxEvictedPrefix) {
		t.Fatalf("eviction frame = %+v", sent)
	}
	// The session's loop observes first the delivered item, then the
	// eviction as its terminal recv.
	if m, err := ms.recv(); err != nil || m.Op != "fetch" {
		t.Fatalf("first recv = %+v, %v", m, err)
	}
	if _, err := ms.recv(); err == nil || !strings.Contains(err.Error(), muxEvictedPrefix) {
		t.Fatalf("terminal recv = %v, want the eviction error", err)
	}
	// A late frame for the evicted token follows the demux path: the lookup
	// misses, the tombstone absorbs it silently — no fault, no error frame.
	if mc.lookup(7) != nil {
		t.Fatal("lookup found the evicted session")
	}
}

// TestMuxClientEvictionTyped: the client library surfaces a server eviction
// as ErrSessionEvicted through the ordinary recv path.
func TestMuxClientEvictionTyped(t *testing.T) {
	mx := NewMux(nil) // transport never touched: the item is injected
	c := mx.Session()
	mw := c.tr.(*muxWire)
	mw.token = 3
	mw.in = make(chan muxItem, 1)
	mw.in <- muxItem{m: message{Op: "error", Msg: "session evicted: flow-control credit exhausted (token 3)"}}
	_, err := c.recv()
	if !errors.Is(err, ErrSessionEvicted) {
		t.Fatalf("recv = %v, want ErrSessionEvicted", err)
	}
}

// --- fleet: many sessions, one connection ----------------------------------

// TestMuxFleetOverOneConnection runs a mixed fleet — lockstep and pipelined
// sessions — over a single mux connection and checks the full accounting:
// every session completes, the state registry groups them under one ConnID
// with Mux set, and the mux metric family adds up.
func TestMuxFleetOverOneConnection(t *testing.T) {
	const n = 12
	ends := make(chan SessionEnd, n)
	s, addr := startServerWith(t, func(s *Server) {
		s.Metrics = NewMetrics(obs.NewRegistry())
		s.OnSessionEnd = func(e SessionEnd) { ends <- e }
	})

	mx, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	connIDs := make(map[string]bool)
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := mx.Session()
			opts := RegisterOptions{MaxEvals: 50, Improved: true, Proto: 3}
			if i%3 == 0 {
				opts.Window = 4
			}
			if _, err := c.Register(quadRSL, opts); err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			var best *Best
			var terr error
			if opts.Window > 1 {
				best, terr = c.TuneParallel(quadPeak, 4)
			} else {
				best, terr = c.Tune(quadPeak)
			}
			if terr != nil {
				t.Errorf("session %d: %v", i, terr)
				return
			}
			if best.Perf < 900 {
				t.Errorf("session %d best = %+v", i, best)
			}
			c.Close()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		end := waitEnd(t, ends)
		if end.Err != nil {
			t.Errorf("session %s: %v", end.ID, end.Err)
		}
		if !end.Completed {
			t.Errorf("session %s did not complete", end.ID)
		}
	}
	// Every session snapshot carries the same connection identity.
	for _, snap := range s.SessionSnapshots() {
		if !snap.Mux {
			t.Errorf("session %s not marked mux", snap.ID)
		}
		mu.Lock()
		connIDs[snap.ConnID] = true
		mu.Unlock()
	}
	if len(connIDs) != 1 {
		t.Errorf("sessions spread over %d ConnIDs, want 1: %v", len(connIDs), connIDs)
	}
	mx.Close()

	// The connection gauge returns to zero and the per-connection session
	// histogram saw all n sessions on one connection.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics.MuxConnections.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if v := s.Metrics.MuxConnections.Value(); v != 0 {
		t.Errorf("MuxConnections = %v after close, want 0", v)
	}
	if c, sum := s.Metrics.MuxSessionsPerConn.Count(), s.Metrics.MuxSessionsPerConn.Sum(); c != 1 || sum != n {
		t.Errorf("MuxSessionsPerConn count=%d sum=%v, want count=1 sum=%d", c, sum, n)
	}
	if v := s.Metrics.MuxCorkedFlushFrames.Count(); v == 0 {
		t.Error("corked writer never observed a flush")
	}
	if v := s.Metrics.MuxUnknownTokens.Value(); v != 0 {
		t.Errorf("MuxUnknownTokens = %d, want 0", v)
	}
	frames, flushes := mx.Stats()
	if frames == 0 || flushes == 0 || frames < flushes {
		t.Errorf("client mux stats frames=%d flushes=%d", frames, flushes)
	}
}

// TestMuxCorkBatchesAcrossSessions runs 32 lockstep sessions over one mux
// connection and checks that both corked writers batch across sessions.
// A drain that never yields leaves about one frame per server flush and two
// per client flush, because Go's depth-first wakeups hand the writer one
// reply chain at a time; yielding once before the flush lets the other
// sessions queue theirs. Under -race the scheduler interleaves differently
// and even the drain without a yield batches about 3.5×, so only the plain
// run tells the two apart.
func TestMuxCorkBatchesAcrossSessions(t *testing.T) {
	const n = 32
	s, addr := startServerWith(t, func(s *Server) { s.Metrics = NewMetrics(obs.NewRegistry()) })
	mx, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mx.Close() })
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mx.Session()
			defer c.Close()
			if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 100, Proto: 3}); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Tune(quadPeak); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	h := s.Metrics.MuxCorkedFlushFrames
	frames, flushes := mx.Stats()
	server, client := h.Sum()/float64(h.Count()), float64(frames)/float64(flushes)
	t.Logf("frames per flush: server %.2f over %d flushes, client %.2f over %d", server, h.Count(), client, flushes)
	if !(server >= 2) {
		t.Errorf("server frames per flush = %.2f, want >= 2", server)
	}
	if !(client >= 4) {
		t.Errorf("client frames per flush = %.2f, want >= 4", client)
	}
}

// stallConn is a transport whose reads block until Close and then take a
// while to return, like a reader goroutine still unwinding after the
// connection is gone. Writes succeed and go nowhere.
type stallConn struct {
	net.Conn
	closed chan struct{}
}

func (c *stallConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *stallConn) Read([]byte) (int, error) {
	<-c.closed
	time.Sleep(20 * time.Millisecond)
	return 0, net.ErrClosed
}

func (c *stallConn) Close() error {
	close(c.closed)
	return nil
}

// muxGoroutines counts the goroutines running mx's reader or its corked
// writer, matched by receiver address in a stack dump of every goroutine.
// Goroutines of other muxes and servers, such as those earlier tests leave
// still ending, do not count. A receiver the traceback cannot vouch for is
// printed with a trailing '?'.
func muxGoroutines(mx *Mux) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, frame := range []string{
		fmt.Sprintf("(*Mux).reader(%p", mx),
		fmt.Sprintf("(*corkedWriter).run(%p", mx.cw),
	} {
		n += bytes.Count(buf, []byte(frame+")")) + bytes.Count(buf, []byte(frame+"?)"))
	}
	return n
}

// TestMuxCloseWaitsForGoroutines: Close returns only once the mux's reader
// and writer have finished their work — the writer's run has returned and
// the reader has closed every session route — and neither goroutine is
// left in the stack dump shortly after.
func TestMuxCloseWaitsForGoroutines(t *testing.T) {
	mx := NewMux(&stallConn{closed: make(chan struct{})})
	// The first register negotiates the mux, which starts the reader and the
	// writer; the second attaches a tokened session. Nothing ever answers.
	var routes []*muxWire
	for i := 0; i < 2; i++ {
		w := mx.Session().tr.(*muxWire)
		if err := w.send(message{Op: "register", RSL: quadRSL}); err != nil {
			t.Fatal(err)
		}
		routes = append(routes, w)
	}
	// Both show up in the dump once they run, which proves the count sees
	// them.
	for deadline := time.Now().Add(5 * time.Second); muxGoroutines(mx) != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the mux's 2 goroutines in the stack dump after negotiation", muxGoroutines(mx))
		}
		time.Sleep(time.Millisecond)
	}
	if err := mx.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-mx.cw.done:
	default:
		t.Fatal("the corked writer was still running when Close returned")
	}
	for _, w := range routes {
		select {
		case _, open := <-w.in:
			if open {
				t.Fatalf("session %d's route delivered an item after Close", w.token)
			}
		default:
			t.Fatalf("session %d's route was still open when Close returned", w.token)
		}
	}
	// A goroutine's frame outlives its last statement, so the dump may show
	// it a moment after Close; it must leave soon after.
	for deadline := time.Now().Add(5 * time.Second); muxGoroutines(mx) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d mux goroutines 5s after Close, want 0", muxGoroutines(mx))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxSessionLimit: attaches beyond -max-mux-sessions are refused with a
// framed error on the requested token; the connection and the sessions
// within the limit keep working.
func TestMuxSessionLimit(t *testing.T) {
	_, addr := startServerWith(t, func(s *Server) { s.MaxMuxSessions = 2 })
	rv := rawDialV3(t, addr)
	rv.registerMux()

	regBody, err := json.Marshal(message{Op: "register", RSL: quadRSL, MaxEvals: 60})
	if err != nil {
		t.Fatal(err)
	}
	rv.writeMuxFrame(opRegister, 2, regBody)
	if tok, m := rv.readMuxFrame(); tok != 2 || m.Op != "registered" {
		t.Fatalf("second register = token %d %+v", tok, m)
	}
	rv.writeMuxFrame(opRegister, 3, regBody)
	tok, m := rv.readMuxFrame()
	if tok != 3 || m.Op != "error" || !strings.Contains(m.Msg, "session limit") {
		t.Fatalf("over-limit register = token %d %+v, want a limit error on token 3", tok, m)
	}
	rv.writeMuxFrame(opFetch, muxToken1, nil)
	if tok, m := rv.readMuxFrame(); tok != muxToken1 || m.Op != "config" {
		t.Fatalf("fetch after refused attach = token %d %+v", tok, m)
	}
}

// TestMuxRefused: a server configured with a negative MaxMuxSessions
// answers the negotiation with a protocol error.
func TestMuxRefused(t *testing.T) {
	_, addr := startServerWith(t, func(s *Server) { s.MaxMuxSessions = -1 })
	mx, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mx.Close() })
	c := mx.Session()
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 40, Proto: 3}); err == nil {
		t.Fatal("register succeeded against a mux-refusing server")
	}
}
