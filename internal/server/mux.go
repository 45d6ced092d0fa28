package server

// Session multiplexing (v4-mux), server side.
//
// A v3 connection whose first register envelope carries "mux":true becomes a
// multiplexed connection hosting up to Server.MaxMuxSessions concurrent
// tuning sessions (see wire.go for the frame layout). The connection
// goroutine turns into a demultiplexer: it reads frames, routes each to its
// session's bounded inbox, and runs one goroutine per session executing the
// one session loop (Server.serve, kernel included) a plain connection runs,
// reading the inbox where a plain session reads its socket.
// Replies from every session funnel through one corkedWriter, the type the
// client end uses too: take a queued frame, drain everything queued, yield
// the processor once and drain again, then flush once. The yield is needed
// because Go runs the goroutine a channel send wakes next, so each reply
// chain (demux → session → writer) runs depth-first and a drain without it
// finds only the reply that woke the writer. On the benchmark's mux-fleet
// workload the yield takes the server from 1.03 to 4.24 frames per flush.
//
// Flow control is credit-based and per-session: a session's credit is its
// inbox capacity (2×window+4 — a conforming client can never exceed its
// pipeline window plus the coalesced report+fetch in flight, so the bound is
// purely protective). A frame arriving for a full inbox is a credit stall:
// the offending session is evicted with a framed error, and the connection
// and its peer sessions continue — one stalled session never head-of-line
// blocks the rest.
//
// Error scoping mirrors the budget model of plain connections. A fault that
// names a live session (garbage payload under a valid token) charges that
// session's failure budget; a fault that does not (malformed token, unknown
// token, register misuse) is answered with a framed error on reserved token
// 0 and charged to a connection-scope budget. Frames for recently-detached
// tokens are dropped silently via a tombstone ring: a pipelined client's
// late reports racing its session's end are not faults.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"

	"harmony/internal/obs"
)

// DefaultMaxMuxSessions caps concurrent sessions per mux connection when
// Server.MaxMuxSessions is zero.
const DefaultMaxMuxSessions = 256

// muxToken1 is the session token the negotiation register implicitly
// attaches: the client's first session.
const muxToken1 = 1

// muxTombstones is how many recently-detached tokens each connection
// remembers. Frames for a tombstoned token are dropped silently instead of
// being charged as unknown-token faults.
const muxTombstones = 64

// muxItem is one routed inbox entry: a decoded message, or a tolerable
// garbage error to charge against the session's failure budget.
type muxItem struct {
	m   message
	err *garbageError
}

// muxConn is one multiplexed connection's shared state: the session table,
// the corked writer, and the tombstone ring.
type muxConn struct {
	s      *Server
	connID string
	remote string
	// firstID is the first session's ID: connection-scope records carry
	// that session's identity, without its token.
	firstID     string
	budget      int
	maxSessions int
	cw          *corkedWriter

	mu       sync.Mutex
	table    map[uint64]*session
	tombs    [muxTombstones]uint64
	tombNext int
	// attached counts every session ever attached — the lifetime value the
	// sessions-per-connection histogram observes.
	attached int

	// wg tracks session goroutines; teardown waits for all of them before
	// retiring the writer.
	wg sync.WaitGroup
}

// serveMux runs a multiplexed connection: demux loop on this goroutine, one
// corked-writer goroutine, one goroutine per session running the same
// session loop a plain connection runs. first is the session handle()
// opened; the negotiation register attaches it as token 1.
func (s *Server) serveMux(first *session, bw *binWire, w *bufio.Writer, beforeWrite func(), reg message, remote, connID string) error {
	m := s.m()
	m.MuxConnections.Inc()
	defer m.MuxConnections.Dec()

	maxSessions := s.MaxMuxSessions
	if maxSessions == 0 {
		maxSessions = DefaultMaxMuxSessions
	}
	mc := &muxConn{
		s: s, connID: connID, remote: remote,
		firstID: first.id, budget: first.budget, maxSessions: maxSessions,
		// 64 queued replies hold a batch from every session of a busy
		// connection; past that, senders wait for the next flush.
		cw:    newCorkedWriter(w, 64, beforeWrite, m.MuxCorkedFlushFrames),
		table: map[uint64]*session{},
	}
	// The negotiation register was a plain v3 frame; everything after it, in
	// both directions, carries a session token.
	bw.fr.mux = true
	go mc.cw.run()

	// A peer whose negotiation register is invalid has nothing to
	// multiplex: session 1's error answers on its token and the connection
	// ends.
	err := mc.attach(muxToken1, first, reg)
	if err == nil {
		err = mc.demux(bw)
	}
	mc.teardown(err)
	mc.mu.Lock()
	attached := mc.attached
	mc.mu.Unlock()
	m.MuxSessionsPerConn.Observe(float64(attached))
	if err != nil {
		mc.logAttrs(slog.LevelWarn, "mux connection ended", slog.Any("err", err))
	} else {
		mc.logAttrs(slog.LevelDebug, "mux connection ended")
	}
	return err
}

// logAttrs emits one connection-scope record (see session.logAttrs).
func (mc *muxConn) logAttrs(level slog.Level, msg string, attrs ...slog.Attr) {
	logIdentity(mc.s.logger(), level, msg, mc.firstID, mc.remote, mc.connID, 0, attrs)
}

// demux is the connection's read loop: decode one frame, route it to its
// session (or handle registers, unknown tokens and connection-scope faults),
// repeat until the transport dies or the connection budget is spent.
func (mc *muxConn) demux(bw *binWire) error {
	s := mc.s
	m := s.m()
	connFaults := 0
	// connFault answers a connection-scope fault on reserved token 0 and
	// charges the connection budget; non-nil means the budget is spent and
	// the connection must die.
	connFault := func(what string) error {
		m.ProtocolErrors.Inc()
		mc.send(0, message{Op: "error", Msg: what}) //nolint:errcheck
		connFaults++
		if connFaults > mc.budget {
			return fmt.Errorf("connection failure budget exhausted (%d faults > %d): %s", connFaults, mc.budget, what)
		}
		mc.logAttrs(slog.LevelWarn, "tolerated connection fault", slog.Int("fault", connFaults), slog.Int("budget", mc.budget), slog.String("what", what))
		return nil
	}

	for {
		msg, err := bw.recv()
		if err != nil {
			var g *garbageError
			if errors.As(err, &g) {
				if g.hasSess {
					// Payload garbage under a parsed token: the fault belongs
					// to that session's budget, not the connection's.
					if sess := mc.lookup(g.sess); sess != nil {
						mc.deliver(sess, muxItem{err: g})
						continue
					}
					if mc.tombstoned(g.sess) {
						continue
					}
				}
				if terr := connFault(g.Error()); terr != nil {
					return terr
				}
				continue
			}
			switch {
			case errors.Is(err, io.EOF):
				return nil // clean close between frames
			case errors.Is(err, errFrameTooBig):
				m.OversizedLines.Inc()
				m.ProtocolErrors.Inc()
				mc.send(0, message{Op: "error", Msg: oversizedMsg}) //nolint:errcheck
				return errors.New(oversizedMsg)
			case errors.Is(err, io.ErrUnexpectedEOF):
				return fmt.Errorf("server: connection died mid-frame")
			}
			return err
		}

		if msg.Op == "register" {
			if terr := mc.register(msg, connFault); terr != nil {
				return terr
			}
			continue
		}
		sess := mc.lookup(msg.sess)
		if sess == nil {
			if mc.tombstoned(msg.sess) {
				continue // a finished session's late frames: not a fault
			}
			m.MuxUnknownTokens.Inc()
			if terr := connFault(fmt.Sprintf("unknown mux session token %d", msg.sess)); terr != nil {
				return terr
			}
			continue
		}
		mc.deliver(sess, muxItem{m: msg})
	}
}

// register attaches one additional session from a tokened register envelope.
// Attach problems are per-frame outcomes (a framed error, possibly a
// connection-budget charge), never a connection kill; the returned error is
// non-nil only when the budget is spent.
func (mc *muxConn) register(reg message, connFault func(string) error) error {
	s := mc.s
	tok := reg.sess
	if tok == 0 {
		return connFault("mux register with reserved session token 0")
	}
	mc.mu.Lock()
	_, live := mc.table[tok]
	full := len(mc.table) >= mc.maxSessions
	mc.mu.Unlock()
	if live {
		return connFault(fmt.Sprintf("mux register reuses live session token %d", tok))
	}
	if full {
		// Not a budget charge: the limit is a capacity answer the client can
		// retry after a session finishes, not misbehaviour.
		s.m().ProtocolErrors.Inc()
		mc.send(tok, message{Op: "error", Msg: fmt.Sprintf("mux session limit reached (%d)", mc.maxSessions)}) //nolint:errcheck
		return nil
	}
	// A failed registration ends that session alone.
	mc.attach(tok, s.openSession(mc.remote, mc.connID), reg) //nolint:errcheck
	return nil
}

// attach binds sess to token tok, registers it and, once the kernel is
// ready, installs it in the table and starts its goroutine. A registration the
// server cannot accept is answered on tok and ends the session here.
func (mc *muxConn) attach(tok uint64, sess *session, reg message) error {
	s := mc.s
	sess.token, sess.proto, sess.mc = tok, 3, mc
	if err := s.register(sess, reg); err != nil {
		return s.endSession(sess, err)
	}
	// The session's flow-control credit: a conforming client holds at most
	// window configs plus a coalesced report+fetch in flight, so 2×window+4
	// only ever fills when the peer ignores the protocol's own pacing.
	sess.in = make(chan muxItem, 2*sess.window+4)
	mc.mu.Lock()
	mc.table[tok] = sess
	mc.attached++
	mc.mu.Unlock()
	mc.wg.Add(1)
	go func() {
		defer mc.wg.Done()
		err := s.serve(sess)
		mc.detach(tok)
		s.endSession(sess, err) //nolint:errcheck // recorded by endSession
	}()
	return nil
}

// lookup resolves a live session token.
func (mc *muxConn) lookup(tok uint64) *session {
	mc.mu.Lock()
	sess := mc.table[tok]
	mc.mu.Unlock()
	return sess
}

// deliver routes one inbox item to a session, evicting it if its
// flow-control credit is exhausted. Called only from the demux goroutine.
func (mc *muxConn) deliver(ms *session, it muxItem) {
	select {
	case ms.in <- it:
		return
	default:
	}
	// Credit stall: the session ignored the protocol's own pacing. Evict it
	// — framed error so the client's handle fails typed, terminal condition
	// through the inbox close — and let the connection's peers continue.
	m := mc.s.m()
	m.MuxCreditStalls.Inc()
	m.MuxEvictions.Inc()
	reason := fmt.Sprintf("session evicted: flow-control credit exhausted (token %d)", ms.token)
	mc.send(ms.token, message{Op: "error", Msg: reason}) //nolint:errcheck
	mc.mu.Lock()
	delete(mc.table, ms.token)
	mc.tomb(ms.token)
	mc.mu.Unlock()
	ms.termErr = errors.New(reason)
	close(ms.in)
	ms.logAttrs(slog.LevelWarn, "mux session evicted: flow-control credit exhausted")
}

// detach removes a finished session from the table and tombstones its token
// so late frames are dropped silently.
func (mc *muxConn) detach(tok uint64) {
	mc.mu.Lock()
	if _, ok := mc.table[tok]; ok {
		delete(mc.table, tok)
		mc.tomb(tok)
	}
	mc.mu.Unlock()
}

// tomb records a detached token in the ring. Callers hold mc.mu.
func (mc *muxConn) tomb(tok uint64) {
	mc.tombs[mc.tombNext%muxTombstones] = tok
	mc.tombNext++
}

// tombstoned reports whether a token was recently detached.
func (mc *muxConn) tombstoned(tok uint64) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	n := mc.tombNext
	if n > muxTombstones {
		n = muxTombstones
	}
	for i := 0; i < n; i++ {
		if mc.tombs[i] == tok {
			return true
		}
	}
	return false
}

// send stamps the session token and queues one reply for the corked writer.
func (mc *muxConn) send(tok uint64, m message) error {
	m.sess, m.hasSess = tok, true
	return mc.cw.send(m)
}

// corkedWriter is the batching writer both ends of a mux connection use.
// Every session's tokened frames queue on out and one goroutine, run,
// commits them in batches of one flush each. It is the one place the flush
// policy lives and the one place per-flush frame counts are recorded.
type corkedWriter struct {
	fw          frameWriter
	beforeWrite func()         // write-deadline hook; nil means none
	hist        *obs.Histogram // observes frames per flush; nil means none

	out  chan message
	stop chan struct{} // closed by close: commit what is queued, then exit
	dead chan struct{} // closed on the first write error, err set before
	err  error
	done chan struct{} // closed when run returns

	frames, flushes atomic.Uint64
}

func newCorkedWriter(w *bufio.Writer, queue int, beforeWrite func(), hist *obs.Histogram) *corkedWriter {
	return &corkedWriter{
		fw: frameWriter{w: w, mux: true}, beforeWrite: beforeWrite, hist: hist,
		out: make(chan message, queue), stop: make(chan struct{}),
		dead: make(chan struct{}), done: make(chan struct{}),
	}
}

// send queues one tokened frame. It fails once the writer has hit a write
// error or been closed.
func (cw *corkedWriter) send(m message) error {
	select {
	case cw.out <- m:
		return nil
	case <-cw.dead:
		return cw.err
	case <-cw.stop:
		return errMuxClosed
	}
}

// run is the writer goroutine. It exits on the first write error, after
// which senders fail on dead, or once close was called and the queue is
// empty.
func (cw *corkedWriter) run() {
	defer close(cw.done)
	for {
		var m message
		select {
		case m = <-cw.out:
		case <-cw.stop:
			if len(cw.out) == 0 {
				return
			}
			m = <-cw.out
		}
		if err := cw.flush(m); err != nil {
			cw.err = err
			close(cw.dead)
			return
		}
	}
}

// flush commits one batch with a single Flush: m, every frame already
// queued, and, after yielding the processor once, every frame queued in the
// meantime. The yield is what makes the cork work. Go runs the goroutine a
// channel send wakes next, so each reply chain (demux → session → writer)
// runs depth-first, and a drain without the yield finds only the frame that
// woke the writer. Gosched lets the sessions woken by
// the same read batch queue their frames first; with nothing else runnable
// it returns at once, so an idle connection still answers a lone frame
// immediately. Yielding again while frames keep arriving measured no better.
func (cw *corkedWriter) flush(m message) error {
	if cw.beforeWrite != nil {
		cw.beforeWrite()
	}
	if err := cw.fw.append(m); err != nil {
		return err
	}
	n, yielded := 1, false
	for {
		select {
		case m = <-cw.out:
			if err := cw.fw.append(m); err != nil {
				return err
			}
			n++
			continue
		default:
		}
		if yielded {
			break
		}
		runtime.Gosched()
		yielded = true
	}
	if err := cw.fw.w.Flush(); err != nil {
		return err
	}
	cw.frames.Add(uint64(n))
	cw.flushes.Add(1)
	cw.hist.Observe(float64(n))
	return nil
}

// close retires the writer once its senders are done or abandoned: frames
// still queued are committed unless the transport already failed, and run
// has returned when close does.
func (cw *corkedWriter) close() {
	close(cw.stop)
	<-cw.done
}

// teardown severs every still-attached session (its recv observes term, its
// goroutine unwinds and deposits a partial trace), waits for all of them,
// then retires the writer.
func (mc *muxConn) teardown(err error) {
	term := err
	if term == nil {
		// A clean connection close mid-session reads as EOF per session —
		// exactly what a plain connection's loop would have seen.
		term = io.EOF
	}
	mc.mu.Lock()
	live := make([]*session, 0, len(mc.table))
	for tok, sess := range mc.table {
		live = append(live, sess)
		delete(mc.table, tok)
		mc.tomb(tok)
	}
	mc.mu.Unlock()
	for _, sess := range live {
		sess.termErr = term
		close(sess.in)
	}
	mc.wg.Wait()
	mc.cw.close()
}
