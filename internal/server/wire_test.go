package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/faultnet"
	"harmony/internal/rsl"
	"harmony/internal/search"
)

// --- binary v3 end-to-end -------------------------------------------------

func TestV3LockstepSession(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 150, Improved: true, Proto: 3}); err != nil {
		t.Fatal(err)
	}
	if c.Proto() != 3 {
		t.Fatalf("Proto() = %d, want 3", c.Proto())
	}
	best, err := c.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v, want perf >= 980", best)
	}
}

func TestV3PipelinedSession(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 120, Improved: true, Window: 4, Proto: 3}); err != nil {
		t.Fatal(err)
	}
	if c.Window() != 4 {
		t.Fatalf("granted window = %d, want 4", c.Window())
	}
	best, err := c.TuneParallel(quadPeak, 4)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("best = %+v, want perf >= 980", best)
	}
}

// --- cross-framing property: identical transcripts ------------------------

// transcript is the observable story of one session from the application's
// side: every configuration measured (in order), every perf reported, and
// the final answer.
type transcript struct {
	configs [][]int
	perfs   []float64
	best    Best
}

// runLockstep drives one full lockstep session on a fresh server and
// records its transcript.
func runLockstep(t *testing.T, opts RegisterOptions, objective func(search.Config) float64) transcript {
	t.Helper()
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, opts); err != nil {
		t.Fatal(err)
	}
	var tr transcript
	best, err := c.Tune(func(cfg search.Config) float64 {
		perf := objective(cfg)
		tr.configs = append(tr.configs, append([]int(nil), cfg...))
		tr.perfs = append(tr.perfs, perf)
		return perf
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.best = *best
	return tr
}

func sameTranscript(a, b transcript) bool {
	if len(a.configs) != len(b.configs) {
		return false
	}
	for i := range a.configs {
		if fmt.Sprint(a.configs[i]) != fmt.Sprint(b.configs[i]) || a.perfs[i] != b.perfs[i] {
			return false
		}
	}
	return fmt.Sprint(a.best) == fmt.Sprint(b.best)
}

// TestCrossFramingTranscriptEquivalence is the property test behind the v3
// rollout: for a deterministic objective, the same registration over the
// v1 JSON framing, an explicit v2-style registration, and the binary v3
// framing must produce identical fetch/report sequences and the identical
// final best — the framing changes bytes, never the tuning trajectory.
func TestCrossFramingTranscriptEquivalence(t *testing.T) {
	objectives := []struct {
		name string
		fn   func(search.Config) float64
		opts RegisterOptions
	}{
		{"quad-improved", quadPeak, RegisterOptions{MaxEvals: 120, Improved: true}},
		{"quad-classic", quadPeak, RegisterOptions{MaxEvals: 90}},
		{"valley-min", func(cfg search.Config) float64 {
			dx, dy := float64(cfg[0]-7), float64(cfg[1]-33)
			return dx*dx + dy*dy
		}, RegisterOptions{MaxEvals: 120, Improved: true, Minimize: true}},
	}
	for _, tc := range objectives {
		t.Run(tc.name, func(t *testing.T) {
			v1 := tc.opts // Proto 0: JSON line framing, no window — classic v1
			v2 := tc.opts
			v2.Proto = 2 // explicit v2 generation selector, same JSON bytes
			v3 := tc.opts
			v3.Proto = 3 // binary frames

			t1 := runLockstep(t, v1, tc.fn)
			t2 := runLockstep(t, v2, tc.fn)
			t3 := runLockstep(t, v3, tc.fn)
			if !sameTranscript(t1, t2) {
				t.Errorf("v1 and v2 transcripts diverge:\nv1 best %+v (%d evals)\nv2 best %+v (%d evals)",
					t1.best, len(t1.configs), t2.best, len(t2.configs))
			}
			if !sameTranscript(t1, t3) {
				t.Errorf("v1 and v3 transcripts diverge:\nv1 best %+v (%d evals)\nv3 best %+v (%d evals)",
					t1.best, len(t1.configs), t3.best, len(t3.configs))
			}
		})
	}
}

// TestCrossFramingPipelinedEquivalence extends the property to pipelined
// sessions: the v2-JSON and v3-binary framings at the same window must
// measure the same multiset of configurations and land on the identical
// best (the kernel trajectory is deterministic; only report arrival order
// may differ, so the transcript is compared order-insensitively).
func TestCrossFramingPipelinedEquivalence(t *testing.T) {
	run := func(proto int) transcript {
		t.Helper()
		_, addr := startServer(t)
		c := dial(t, addr)
		opts := RegisterOptions{MaxEvals: 120, Improved: true, Window: 4, Proto: proto}
		if _, err := c.Register(quadRSL, opts); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var tr transcript
		best, err := c.TuneParallel(func(cfg search.Config) float64 {
			perf := quadPeak(cfg)
			mu.Lock()
			tr.configs = append(tr.configs, append([]int(nil), cfg...))
			tr.perfs = append(tr.perfs, perf)
			mu.Unlock()
			return perf
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		tr.best = *best
		return tr
	}
	sortKey := func(tr transcript) []string {
		keys := make([]string, len(tr.configs))
		for i := range tr.configs {
			keys[i] = fmt.Sprint(tr.configs[i], tr.perfs[i])
		}
		sort.Strings(keys)
		return keys
	}
	t2, t3 := run(2), run(3)
	if fmt.Sprint(t2.best) != fmt.Sprint(t3.best) {
		t.Errorf("pipelined bests diverge across framings: v2 %+v, v3 %+v", t2.best, t3.best)
	}
	k2, k3 := sortKey(t2), sortKey(t3)
	if fmt.Sprint(k2) != fmt.Sprint(k3) {
		t.Errorf("pipelined measurement multisets diverge: %d vs %d configs", len(k2), len(k3))
	}
}

// --- raw v3 wire drives ---------------------------------------------------

// rawV3 hand-drives the binary framing for protocol-level tests.
type rawV3 struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func rawDialV3(t *testing.T, addr string) *rawV3 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(v3Magic[:]); err != nil {
		t.Fatal(err)
	}
	return &rawV3{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (rv *rawV3) writeFrame(op byte, body []byte) {
	rv.t.Helper()
	f := make([]byte, 4, 5+len(body))
	binary.LittleEndian.PutUint32(f, uint32(1+len(body)))
	f = append(f, op)
	f = append(f, body...)
	if _, err := rv.conn.Write(f); err != nil {
		rv.t.Fatalf("write frame 0x%02x: %v", op, err)
	}
}

// readFrame returns the next frame's decoded message.
func (rv *rawV3) readFrame() message {
	rv.t.Helper()
	rv.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(rv.r, hdr[:]); err != nil {
		rv.t.Fatalf("read frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	body := make([]byte, n)
	if _, err := io.ReadFull(rv.r, body); err != nil {
		rv.t.Fatalf("read frame body: %v", err)
	}
	m, err := new(frameReader).decode(body)
	if err != nil {
		rv.t.Fatalf("decode frame: %v", err)
	}
	return m
}

func (rv *rawV3) register() {
	rv.t.Helper()
	body, err := json.Marshal(message{Op: "register", RSL: quadRSL, MaxEvals: 60, Improved: true})
	if err != nil {
		rv.t.Fatal(err)
	}
	rv.writeFrame(opRegister, body)
	if m := rv.readFrame(); m.Op != "registered" {
		rv.t.Fatalf("register reply = %+v", m)
	}
}

// TestV3ReportsNotAcked pins the v3 flow control: after a report the server
// sends nothing until the next fetch — the reply to report+fetch in one
// write is a single config frame, never an ok.
func TestV3ReportsNotAcked(t *testing.T) {
	_, addr := startServer(t)
	rv := rawDialV3(t, addr)
	rv.register()

	rv.writeFrame(opFetch, nil)
	m := rv.readFrame()
	if m.Op != "config" {
		t.Fatalf("fetch reply = %+v, want config", m)
	}
	// report and fetch coalesced into consecutive frames (one write):
	// the one and only reply must be the next config.
	report := make([]byte, 0, 16)
	report = append(report, 0) // hasID = 0
	report = binary.LittleEndian.AppendUint64(report, 0x4059000000000000 /* 100.0 */)
	rv.writeFrame(opReport, report)
	rv.writeFrame(opFetch, nil)
	if m := rv.readFrame(); m.Op != "config" {
		t.Fatalf("reply after report+fetch = %+v, want config (v3 must not ack reports)", m)
	}
}

// TestV3GarbageFrameTolerated: an unknown opcode is a budget charge, not a
// session kill — the stream stays in sync and the session keeps tuning.
func TestV3GarbageFrameTolerated(t *testing.T) {
	_, addr := startServer(t)
	rv := rawDialV3(t, addr)
	rv.register()

	rv.writeFrame(0xEE, []byte{1, 2, 3}) // unknown opcode: tolerable garbage
	rv.writeFrame(opFetch, nil)
	if m := rv.readFrame(); m.Op != "config" {
		t.Fatalf("fetch after garbage frame = %+v, want config", m)
	}
}

// TestV3OversizedFrameClaimRejected: a length claim over the 1 MiB cap is
// terminal — the server answers with a protocol error and hangs up instead
// of allocating for a lie.
func TestV3OversizedFrameClaimRejected(t *testing.T) {
	_, addr := startServer(t)
	rv := rawDialV3(t, addr)
	rv.register()

	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := rv.conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	m := rv.readFrame()
	if m.Op != "error" || !strings.Contains(m.Msg, "1 MiB") {
		t.Fatalf("oversized claim reply = %+v, want the frame-cap error", m)
	}
}

// TestBadPreambleRejected: a connection leading with 0x00 but not the v3
// magic gets a JSON error reply (the one framing any client understands)
// and a close.
func TestBadPreambleRejected(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte{0x00, 'X', 'X', '3'}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("read error reply: %v", err)
	}
	var m message
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("bad-preamble reply is not JSON: %q", line)
	}
	if m.Op != "error" || !strings.Contains(m.Msg, "preamble") {
		t.Fatalf("reply = %+v, want a preamble error", m)
	}
}

// TestV3MidFrameDisconnect: a client dying mid-frame (truncated write) must
// end the session with a classified error, deposit nothing bogus, and leave
// the server fully serviceable.
func TestV3MidFrameDisconnect(t *testing.T) {
	s, addr := startServer(t)
	ends := make(chan SessionEnd, 2)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }

	// Writes: 1 = magic+register (one flush), 2 = fetch, 3 = report+fetch —
	// the truncation strikes the coalesced hot-path write.
	fc, err := faultnet.Dial(addr, 2*time.Second, faultnet.Plan{TruncateWriteAt: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	c := NewClientConn(fc)
	if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true, Proto: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tune(quadPeak); err == nil {
		t.Fatal("tuning over a truncating connection must fail")
	}
	end := waitEnd(t, ends)
	if end.Completed {
		t.Fatalf("end = %+v, want a failed session", end)
	}
	// The truncated frame either surfaces as a mid-frame death or as the
	// peer vanishing before the remainder arrived — never as a success.
	if end.Err == nil {
		t.Fatal("mid-frame disconnect must surface a terminal error")
	}

	// The server is still fine: a clean follow-up session completes.
	c2 := dial(t, addr)
	if _, err := c2.Register(quadRSL, RegisterOptions{MaxEvals: 60, Improved: true, Proto: 3}); err != nil {
		t.Fatal(err)
	}
	best, err := c2.Tune(quadPeak)
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 980 {
		t.Errorf("follow-up best = %+v", best)
	}
}

// --- connection table ------------------------------------------------------

// TestConnTableConcurrentChurn hammers Track/Untrack from many goroutines
// while Close fires mid-churn. Every connection still tracked when Close
// runs must be severed by it, the table must end empty after that one
// Close, and Tracks after it must fail. Run with -race.
func TestConnTableConcurrentChurn(t *testing.T) {
	var tab connTable
	const workers, perWorker = 16, 200
	var wg sync.WaitGroup
	var attempts atomic.Int64
	kept := make([][]net.Conn, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				attempts.Add(1)
				client, srv := net.Pipe()
				client.Close()
				token, ok := tab.Track(srv)
				if !ok {
					srv.Close()
					continue
				}
				if i%2 == 0 {
					tab.Untrack(token)
					srv.Close()
					continue
				}
				kept[w] = append(kept[w], srv)
			}
		}(w)
	}
	// Close once the churn is well under way.
	for attempts.Load() < workers*perWorker/4 {
		runtime.Gosched()
	}
	severed := tab.Close()
	wg.Wait()

	n := 0
	buf := make([]byte, 1)
	for _, conns := range kept {
		for _, srv := range conns {
			n++
			// The peer end is closed, so a live srv reads io.EOF; only a
			// severed one reads io.ErrClosedPipe.
			if _, err := srv.Read(buf); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("a connection tracked before Close survived it (read err %v)", err)
			}
		}
	}
	if n == 0 {
		t.Fatal("no connection was tracked before Close: the churn did not overlap it")
	}
	if severed < n {
		t.Errorf("Close severed %d connections, want >= %d", severed, n)
	}
	if l := tab.Len(); l != 0 {
		t.Fatalf("table holds %d connections after Close", l)
	}
	_, srv := net.Pipe()
	defer srv.Close()
	if _, ok := tab.Track(srv); ok {
		t.Fatal("Track succeeded after Close")
	}
}

// TestMixedFramingConcurrentSessions churns concurrent sessions over both
// framings — some tuning to completion, some disconnecting abruptly — and
// asserts every session ends and, once every end was reported, the
// connection table is empty. Run with -race.
func TestMixedFramingConcurrentSessions(t *testing.T) {
	s, addr := startServer(t)
	ends := make(chan SessionEnd, 64)
	s.OnSessionEnd = func(e SessionEnd) { ends <- e }

	const sessions = 24
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			opts := RegisterOptions{MaxEvals: 40, Improved: true, Proto: 2 + i%2}
			if i%4 == 0 {
				opts.Window = 4
			}
			if _, err := c.Register(quadRSL, opts); err != nil {
				t.Error(err)
				return
			}
			switch {
			case i%6 == 5:
				// Abrupt mid-session disconnect: fetch one config, vanish.
				c.Fetch() //nolint:errcheck
				c.conn.Close()
			case opts.Window > 1:
				if _, err := c.TuneParallel(quadPeak, 4); err != nil {
					t.Errorf("session %d: %v", i, err)
				}
			default:
				if _, err := c.Tune(quadPeak); err != nil {
					t.Errorf("session %d: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		waitEnd(t, ends)
	}
	if n := s.conns.Len(); n != 0 {
		t.Errorf("connection table holds %d entries after all sessions ended", n)
	}
}

// --- fuzz: the v3 frame decoder -------------------------------------------

// FuzzV3FrameDecode feeds arbitrary byte streams to the v3 frame reader:
// truncations, oversized length claims, garbage opcodes, lying value
// counts. The reader must never panic, must classify every failure, and
// every successfully decoded hot-path message must survive a re-encode/
// re-decode round trip.
func FuzzV3FrameDecode(f *testing.F) {
	frame := func(op byte, body []byte) []byte {
		b := make([]byte, 4, 5+len(body))
		binary.LittleEndian.PutUint32(b, uint32(1+len(body)))
		b = append(b, op)
		return append(b, body...)
	}
	f.Add(frame(opFetch, nil))
	f.Add(frame(opQuit, nil))
	f.Add(frame(opReport, append([]byte{1, 7}, make([]byte, 8)...)))
	f.Add(frame(opConfig, []byte{0, 2, 40, 90}))
	f.Add(frame(opRegister, []byte(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }"}`)))
	f.Add(frame(opError, []byte("boom")))
	// Fidelity-carrying hot-path frames: configf has an f64 fidelity after
	// the id, reportf is fidelity+perf (exactly 16 body bytes after the id).
	fid := make([]byte, 8)
	binary.LittleEndian.PutUint64(fid, math.Float64bits(0.25))
	f.Add(frame(opConfigF, append(append([]byte{0}, fid...), 2, 40, 90)))
	f.Add(frame(opConfigF, append(append([]byte{1, 3}, fid...), 2, 40, 90)))
	f.Add(frame(opReportF, append(append([]byte{0}, fid...), make([]byte, 8)...)))
	f.Add(frame(opReportF, append(append([]byte{1, 7}, fid...), make([]byte, 8)...)))
	full := make([]byte, 8)
	binary.LittleEndian.PutUint64(full, math.Float64bits(1.0))
	f.Add(frame(opConfigF, append(append([]byte{0}, full...), 2, 40, 90))) // full fidelity on the fidelity opcode: garbage
	f.Add(frame(opReportF, []byte{0, 1, 2, 3}))                            // short reportf body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                  // oversized length claim
	f.Add([]byte{0, 0, 0, 0})                                              // zero-length frame
	f.Add([]byte{5, 0, 0, 0, opConfig, 0, 0xff})                           // lying value count
	f.Add(frame(opFetch, nil)[:3])                                         // truncated header
	f.Add(frame(opConfig, []byte{0, 2, 40, 90})[:7])                       // truncated body
	// Mux-tokened frames (v4-mux): the same seeds with a varint session
	// token between opcode and payload. Every input runs through both the
	// plain and the mux reader below, so each of these also exercises
	// token-bytes-on-an-unmuxed-connection, and the plain seeds above
	// exercise missing-token-on-a-muxed-connection.
	muxFrame := func(op byte, tok uint64, body []byte) []byte {
		tb := binary.AppendUvarint(nil, tok)
		b := make([]byte, 4, 5+len(tb)+len(body))
		binary.LittleEndian.PutUint32(b, uint32(1+len(tb)+len(body)))
		b = append(b, op)
		b = append(b, tb...)
		return append(b, body...)
	}
	f.Add(muxFrame(opFetch, 1, nil))
	f.Add(muxFrame(opReport, 1, append([]byte{1, 7}, make([]byte, 8)...)))
	f.Add(muxFrame(opConfig, 300, []byte{0, 2, 40, 90})) // two-byte varint token
	f.Add(muxFrame(opRegister, 2, []byte(`{"op":"register","rsl":"{ harmonyBundle x { int {0 60 1} } }"}`)))
	f.Add(muxFrame(opFetch, 99, nil))                     // unknown token: well-formed on the wire
	f.Add(muxFrame(opError, 0, []byte("conn-scope")))     // reserved token 0
	f.Add(frame(opFetch, bytes.Repeat([]byte{0x80}, 10))) // unterminated uvarint token
	f.Add(frame(opFetch, bytes.Repeat([]byte{0x80}, 3)))  // truncated uvarint token
	f.Add(muxFrame(opReportF, 5, []byte{0, 1, 2, 3}))     // tokened short reportf body
	// Runs of config frames whose values cross the end of the reader's
	// slab: 26 ten-value configs need 260 of its valueSlab = 256.
	var run, muxRun []byte
	ten := []byte{0, 10, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	for i := 0; i < 26; i++ {
		run = append(run, frame(opConfig, ten)...)
		muxRun = append(muxRun, muxFrame(opConfig, uint64(1+i%3), ten)...)
	}
	f.Add(run)
	f.Add(muxRun)
	f.Add(append(slices.Clone(run[:len(run)-3]), frame(opConfigF, append(append([]byte{0}, fid...), 2, 40, 90))...)) // a truncated config at the slab's end

	f.Fuzz(func(t *testing.T, data []byte) {
		// The same contract holds on both framings: never panic, classify
		// every failure, and round-trip every decoded hot-path message.
		for _, mux := range []bool{false, true} {
			fr := frameReader{r: bufio.NewReader(bytes.NewReader(data)), mux: mux}
			// Every decoded config stays as decoded while later frames are
			// read: the values carved for it are its own.
			var configs, copies [][]int
			defer func() {
				for i := range configs {
					if !slices.Equal(configs[i], copies[i]) {
						t.Fatalf("mux=%v: config %d changed to %v after later reads, was %v", mux, i, configs[i], copies[i])
					}
				}
			}()
			for i := 0; i < 64; i++ {
				m, err := fr.read()
				if err != nil {
					var g *garbageError
					switch {
					case errors.As(err, &g),
						errors.Is(err, io.EOF),
						errors.Is(err, io.ErrUnexpectedEOF),
						errors.Is(err, errFrameTooBig):
						// every failure must be one of the classified kinds
					default:
						t.Fatalf("mux=%v: unclassified frame error: %v", mux, err)
					}
					if errors.As(err, &g) {
						continue // in sync: keep reading
					}
					break
				}
				if m.Op == "" {
					t.Fatalf("mux=%v: decoded frame with empty op", mux)
				}
				if mux && !m.hasSess {
					t.Fatalf("mux frame decoded without a session token: %+v", m)
				}
				if m.Op == "config" {
					configs, copies = append(configs, m.Values), append(copies, slices.Clone(m.Values))
				}
				// Round-trip stability for everything the writer can encode,
				// token included.
				var buf bytes.Buffer
				fw := frameWriter{w: bufio.NewWriter(&buf), mux: mux}
				if err := fw.append(m); err != nil {
					t.Fatalf("mux=%v: re-encode of decoded %q failed: %v", mux, m.Op, err)
				}
				fw.w.Flush()
				rt := frameReader{r: bufio.NewReader(&buf), mux: mux}
				m2, err := rt.read()
				if err != nil {
					t.Fatalf("mux=%v: re-decode of %q failed: %v", mux, m.Op, err)
				}
				if m2.Op != m.Op || m2.hasID != m.hasID || m2.id != m.id ||
					m2.Fidelity != m.Fidelity || m2.sess != m.sess ||
					fmt.Sprint(m2.Values) != fmt.Sprint(m.Values) ||
					(m2.Perf != m.Perf && !(m2.Perf != m2.Perf && m.Perf != m.Perf)) {
					t.Fatalf("mux=%v: round trip changed the message:\n was %+v\n now %+v", mux, m, m2)
				}
			}
		}
	})
}

// --- fuzz: the v1/v2 JSON line decoder ------------------------------------

// FuzzJSONLineDecode feeds arbitrary byte streams to the JSON wire's recv:
// valid and malformed envelopes, non-object lines, wrongly typed fields,
// truncated and oversized lines. recv must never panic and must classify
// every failure: a line that is not a valid envelope is garbage the session
// is charged for and the stream stays in sync after it, an over-long line
// is errFrameTooBig, and the end of the stream is io.EOF. Every accepted
// line must carry an op and re-encode to a stable line.
func FuzzJSONLineDecode(f *testing.F) {
	// Seed the canonical envelopes, which take the hand parser's fast path.
	for _, e := range envelopes {
		b, err := appendMessage(nil, e.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(b, '\n'))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newJSONWire(bytes.NewReader(data), nil, nil, nil)
		for {
			m, err := tr.recv()
			if err != nil {
				var g *garbageError
				switch {
				case errors.As(err, &g):
					continue
				case errors.Is(err, io.EOF), errors.Is(err, errFrameTooBig):
					return
				}
				t.Fatalf("unclassified line error: %v", err)
			}
			if m.Op == "" {
				t.Fatalf("accepted a line without an op: %+v", m)
			}
			b, err := appendMessage(nil, m)
			if err != nil {
				t.Fatalf("re-encode of accepted %q failed: %v", m.Op, err)
			}
			m2, err := decode(b)
			if err != nil {
				t.Fatalf("re-decode of %s failed: %v", b, err)
			}
			if b2, _ := appendMessage(nil, m2); !bytes.Equal(b, b2) {
				t.Fatalf("round trip changed the line:\n was %s\n now %s", b, b2)
			}
		}
	})
}

// --- benchmarks ------------------------------------------------------------

// benchmarkExchange measures one lockstep measurement exchange end to end
// (client report+fetch in, server config out, kernel handoff included)
// over the given framing.
func benchmarkExchange(b *testing.B, proto int) {
	s := NewServer()
	s.MaxEvalsCap = 1 << 30 // never finish inside the benchmark
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// One session converges after a few dozen evaluations no matter the
	// budget, so the bench reconnects when the kernel finishes — exactly
	// what a load generator does — and the dial/register cost amortizes
	// over the exchanges in between.
	open := func() (*Client, search.Config) {
		c, err := Dial(addr.String(), 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 1 << 30, Improved: true, Proto: proto}); err != nil {
			b.Fatal(err)
		}
		cfg, done, err := c.Fetch()
		if err != nil || done {
			b.Fatalf("first fetch: done=%v err=%v", done, err)
		}
		return c, cfg
	}
	c, cfg := open()
	defer func() { c.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Deterministic per-call noise keeps the simplex spread wide so
		// sessions survive longer before the kernel calls it converged.
		perf := quadPeak(cfg) + 200*math.Sin(float64(i))
		var done bool
		var err error
		cfg, done, err = c.ReportAndFetch(perf)
		if err != nil {
			b.Fatalf("exchange %d: %v", i, err)
		}
		if done {
			c.Close()
			c, cfg = open()
		}
	}
}

func BenchmarkExchangeV2JSON(b *testing.B)   { benchmarkExchange(b, 2) }
func BenchmarkExchangeV3Binary(b *testing.B) { benchmarkExchange(b, 3) }

// BenchmarkRegister times one v3 registration end to end: the preamble and
// register frame out, the daemon's session setup with its classifier match
// and training stage, and the registered frame back. Dialing and closing
// the connection stay outside the timer. "compacted" matches against a
// store of 256 experiences, whose match holds at least dim+1 distinct
// records; "sparse" matches one two-record experience, so the training
// stage fills the third vertex with an estimate.
func BenchmarkRegister(b *testing.B) {
	spec, err := rsl.Parse(quadRSL)
	if err != nil {
		b.Fatal(err)
	}
	key := specKey("shop", spec)
	b.Run("compacted", func(b *testing.B) {
		benchmarkRegister(b, key, false, func(st Store) bool {
			for i := 0; i < 256; i++ {
				x := float64(i) / 256
				tr := search.Trace{
					{Index: 0, Config: search.Config{i % 61, 45}, Perf: 1000 - x},
					{Index: 1, Config: search.Config{20, i % 61}, Perf: 990 - x},
				}
				if !st.Record(key, []float64{x, 1 - x}, search.Maximize, tr) {
					return false
				}
			}
			return true
		})
	})
	b.Run("sparse", func(b *testing.B) {
		benchmarkRegister(b, key, true, func(st Store) bool {
			return st.Record(key, []float64{0.3, 0.7}, search.Maximize, search.Trace{
				{Index: 0, Config: search.Config{30, 45}, Perf: 1000},
				{Index: 1, Config: search.Config{20, 30}, Perf: 990},
			})
		})
	})
}

// benchmarkRegister fills a fresh daemon's store, checks that the
// registration's match is as sparse as the case says, and times
// registrations against it.
func benchmarkRegister(b *testing.B, key string, sparse bool, fill func(Store) bool) {
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if !fill(s.ExperienceStore()) {
		b.Fatal("experience not stored")
	}
	opts := RegisterOptions{MaxEvals: 60, Improved: true, Proto: 3, App: "shop", Characteristics: []float64{0.3, 0.7}}
	exp, ok := s.ExperienceStore().Match(key, opts.Characteristics)
	if !ok || (len(exp.Records) < 3) != sparse {
		b.Fatalf("match holds %d records, want sparse=%v for a 2-d space", len(exp.Records), sparse)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := Dial(addr.String(), 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Register(quadRSL, opts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !c.WarmStarted() {
			b.Fatal("registration did not match an experience")
		}
		c.Close()
		b.StartTimer()
	}
}

// --- frame layer: allocation guards and benchmarks ---------------------------

// hotFrames are the v3 frames of the steady-state exchange: the lockstep
// fetch and report, and the pipelined reduced-fidelity report, with the
// config frames that answer them.
var hotFrames = []struct {
	name string
	m    message
}{
	{"fetch", message{Op: "fetch"}},
	{"report", message{Op: "report", Perf: 987.5}},
	{"reportf", message{Op: "report", Perf: 987.5, Fidelity: 0.25, id: 7, hasID: true}},
	{"config", message{Op: "config", Values: []int{20, 46}}},
	{"configf", message{Op: "config", Values: []int{8, 4, 2, 8, 4, 0, 1, 8, 0, 16}, Fidelity: 0.5, id: 7, hasID: true}},
}

// frameSource replays one encoded frame to a frameReader: each read
// rewinds the source and decodes the frame again.
type frameSource struct {
	frame []byte
	rd    *bytes.Reader
	fr    frameReader
}

func newFrameSource(tb testing.TB, m message, mux bool) *frameSource {
	tb.Helper()
	var buf bytes.Buffer
	fw := frameWriter{w: bufio.NewWriter(&buf), mux: mux}
	if err := fw.append(m); err != nil {
		tb.Fatal(err)
	}
	if err := fw.w.Flush(); err != nil {
		tb.Fatal(err)
	}
	s := &frameSource{frame: buf.Bytes(), rd: bytes.NewReader(nil)}
	s.fr = frameReader{r: bufio.NewReader(s.rd), mux: mux}
	return s
}

func (s *frameSource) read() (message, error) {
	s.rd.Reset(s.frame)
	s.fr.r.Reset(s.rd)
	return s.fr.read()
}

// TestClientConfigsDoNotAlias: the config values a frame reader returns —
// the plain client's and the Mux reader's alike — are carved from shared
// slabs, across several slabs here, yet each configuration is its own:
// it stays valid across later reads, appending to it reallocates, and
// writing to it leaves every other unchanged.
func TestClientConfigsDoNotAlias(t *testing.T) {
	for _, mux := range []bool{false, true} {
		var buf bytes.Buffer
		fw := frameWriter{w: bufio.NewWriter(&buf), mux: mux}
		var want [][]int
		for i := 0; i < 3*valueSlab/7+5; i++ {
			vals := make([]int, 1+i%10)
			for j := range vals {
				vals[j] = 100*i + j
			}
			if err := fw.append(message{Op: "config", Values: vals, sess: 1}); err != nil {
				t.Fatal(err)
			}
			want = append(want, vals)
		}
		if err := fw.w.Flush(); err != nil {
			t.Fatal(err)
		}
		fr := frameReader{r: bufio.NewReader(&buf), mux: mux}
		var got [][]int
		for range want {
			m, err := fr.read()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m.Values)
		}
		for i := range got {
			if grown := append(got[i], -1); &grown[0] == &got[i][0] {
				t.Fatalf("mux=%v: config %d grew in place", mux, i)
			}
		}
		got[3][0] = -7
		want[3][0] = -7
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("mux=%v: config %d = %v, want %v", mux, i, got[i], want[i])
			}
		}
	}
}

// TestFrameReadAllocs guards the frame reader's steady state: reading a
// fetch, report or reportf frame allocates nothing, and so does a config
// frame while the reader's slab has room for its values. A config frame
// that finds the slab used up allocates exactly one new slab.
func TestFrameReadAllocs(t *testing.T) {
	for _, mux := range []bool{false, true} {
		for _, f := range hotFrames {
			m := f.m
			m.sess = 3
			src := newFrameSource(t, m, mux)
			got, err := src.read()
			if err != nil {
				t.Fatalf("%s (mux=%v): %v", f.name, mux, err)
			}
			if got.Op != m.Op || got.Perf != m.Perf || got.Fidelity != m.Fidelity || got.id != m.id ||
				!slices.Equal(got.Values, m.Values) || got.hasSess != mux {
				t.Fatalf("%s (mux=%v) decoded as %+v, want %+v", f.name, mux, got, m)
			}
			// Room for every read below, the warm-up included.
			src.fr.slab = make([]int, 101*len(m.Values))
			if allocs := testing.AllocsPerRun(100, func() { src.read() }); allocs != 0 { //nolint:errcheck
				t.Errorf("%s (mux=%v): read allocated %v, want 0", f.name, mux, allocs)
			}
			if m.Op != "config" {
				continue
			}
			full := func() {
				src.fr.slab = src.fr.slab[:0]
				src.read() //nolint:errcheck
			}
			if allocs := testing.AllocsPerRun(100, full); allocs != 1 {
				t.Errorf("%s (mux=%v): read with the slab used up allocated %v, want 1", f.name, mux, allocs)
			}
		}
	}
}

// envelopes are the JSON envelopes of a session's life, one per kind the
// daemon or its client sends: the register and registered pair, v2 configs
// and reports with an id, full and reduced fidelity, the best, an error.
var envelopes = []struct {
	name string
	m    message
}{
	{"register", message{Op: "register", RSL: quadRSL, Direction: "min", MaxEvals: 120, Improved: true,
		App: "shop", Characteristics: []float64{0.8, 0.2}, Window: 4}},
	{"registered", message{Op: "registered", Names: []string{"x", "y"}, Window: 4, Warm: true}},
	{"fetch", message{Op: "fetch"}},
	{"config", message{Op: "config", hasID: true, id: 3, Values: []int{20, 46}}},
	{"report", message{Op: "report", hasID: true, id: 3, Perf: 987.5}},
	{"configf", message{Op: "config", hasID: true, Values: []int{8, 4, 2, 8, 4, 0, 1, 8, 0, 16}, Fidelity: 0.0625}},
	{"reportf", message{Op: "report", hasID: true, Perf: 63.25, Fidelity: 0.0625}},
	{"best", message{Op: "best", Values: []int{20, 46}, Perf: 999.5, Evals: 57}},
	{"error", message{Op: "error", Msg: "report for unknown id 99"}},
}

// BenchmarkEnvelopeEncode times encoding each JSON envelope into a reused
// buffer.
func BenchmarkEnvelopeEncode(b *testing.B) {
	for _, e := range envelopes {
		b.Run(e.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = appendMessage(buf[:0], e.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvelopeDecode times decoding each JSON envelope.
func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, e := range envelopes {
		b.Run(e.name, func(b *testing.B) {
			line, err := appendMessage(nil, e.m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decode(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameDecode times reading and decoding one v3 frame of each
// hot-path kind.
func BenchmarkFrameDecode(b *testing.B) {
	for _, f := range hotFrames {
		b.Run(f.name, func(b *testing.B) {
			src := newFrameSource(b, f.m, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameEncode times encoding one v3 frame of each hot-path kind
// onto a buffered writer.
func BenchmarkFrameEncode(b *testing.B) {
	for _, f := range hotFrames {
		b.Run(f.name, func(b *testing.B) {
			fw := frameWriter{w: bufio.NewWriter(io.Discard)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fw.append(f.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
