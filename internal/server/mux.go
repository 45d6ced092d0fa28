package server

// Session multiplexing (v4-mux), server side.
//
// A v3 connection whose first register envelope carries "mux":true becomes a
// multiplexed connection hosting up to Server.MaxMuxSessions concurrent
// tuning sessions (see wire.go for the frame layout). The connection
// goroutine turns into a demultiplexer: it reads frames, routes each to its
// session's bounded inbox, and runs one goroutine per session executing the
// very same lockstep/pipelined message loops a plain connection runs.
// Replies from every session funnel through one corkedWriter, the type the
// client end uses too: take a queued frame, drain everything queued, yield
// the processor once and drain again, then flush once. The yield is needed
// because Go runs the goroutine a channel send wakes next, so each reply
// chain (demux → session → kernel → session → writer) runs depth-first and
// a drain without it finds only the reply that woke the writer. On the
// benchmark's mux-fleet workload the yield takes the server from 1.03 to
// 4.24 frames per flush.
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
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"

	"bufio"

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

// muxSession is one session riding a mux connection. Its inbox is the
// flow-control credit; termErr (written before the inbox closes, read after
// — the close is the happens-before edge) is the terminal condition its
// message loop observes.
type muxSession struct {
	mc    *muxConn
	token uint64
	id    string
	st    *sessionState
	end   SessionEnd
	sess  *session
	inbox chan muxItem
	// termErr is the terminal recv condition delivered by closing inbox:
	// io.EOF for a clean connection close, io.ErrUnexpectedEOF/errFrameTooBig
	// for transport death, or an eviction error.
	termErr error
	log     *slog.Logger
}

// recv implements transport over the session's inbox: the message loops run
// unchanged, reading routed frames instead of the socket.
func (ms *muxSession) recv() (message, error) {
	it, ok := <-ms.inbox
	if !ok {
		if ms.termErr != nil {
			return message{}, ms.termErr
		}
		return message{}, io.EOF
	}
	if it.err != nil {
		return message{}, it.err
	}
	return it.m, nil
}

// send implements transport through the shared corked writer.
func (ms *muxSession) send(m message) error { return ms.mc.send(ms.token, m) }

// muxConn is one multiplexed connection's shared state: the session table,
// the corked writer, and the tombstone ring.
type muxConn struct {
	s           *Server
	shard       int
	connID      string
	remote      string
	budget      int
	log         *slog.Logger
	maxSessions int
	cw          *corkedWriter

	mu       sync.Mutex
	table    map[uint64]*muxSession
	tombs    [muxTombstones]uint64
	tombNext int
	// attached counts every session ever attached — the lifetime value the
	// sessions-per-connection histogram observes.
	attached int

	// wg tracks session runner goroutines; teardown waits for all of them
	// before retiring the writer.
	wg sync.WaitGroup
}

// muxSetup carries serve()'s per-connection context into serveMux.
type muxSetup struct {
	bw          *binWire
	w           *bufio.Writer
	beforeWrite func()
	reg         message // the negotiation register (attaches session 1)
	id          string
	shard       int
	connID      string
	remote      string
	st          *sessionState
	log         *slog.Logger
	budget      int
}

// serveMux runs a multiplexed connection: demux loop on this goroutine, one
// corked-writer goroutine, one runner goroutine per session. It owns every
// session's bookkeeping — including session 1's, which reuses the
// connection's id, state twin and the started/active counts handle() took.
func (s *Server) serveMux(su muxSetup) error {
	m := s.m()
	m.MuxConnections.Inc()
	defer m.MuxConnections.Dec()

	maxSessions := s.MaxMuxSessions
	if maxSessions == 0 {
		maxSessions = DefaultMaxMuxSessions
	}
	mc := &muxConn{
		s: s, shard: su.shard, connID: su.connID, remote: su.remote,
		budget: su.budget, log: su.log, maxSessions: maxSessions,
		// 64 queued replies hold a batch from every session of a busy
		// connection; past that, senders wait for the next flush.
		cw:    newCorkedWriter(su.w, 64, su.beforeWrite, m.MuxCorkedFlushFrames),
		table: map[uint64]*muxSession{},
	}
	// The negotiation register was a plain v3 frame; everything after it, in
	// both directions, carries a session token.
	su.bw.fr.mux = true
	go mc.cw.run()

	err := mc.attach(muxToken1, su.reg, su.id, su.st, su.log)
	if err != nil {
		// Session 1 never started. Close out the state handle() opened,
		// answer on its token so the client's pending Register fails, and
		// end the connection: a peer whose negotiation register is invalid
		// has nothing to multiplex.
		mc.attachFailed(muxToken1, su.id, su.st, su.reg.App, err)
		mc.teardown(err)
		m.MuxSessionsPerConn.Observe(0)
		return err
	}

	err = mc.demux(su.bw)
	mc.teardown(err)
	mc.mu.Lock()
	attached := mc.attached
	mc.mu.Unlock()
	m.MuxSessionsPerConn.Observe(float64(attached))
	return err
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
		mc.log.Warn("tolerated connection fault", "fault", connFaults, "budget", mc.budget, "what", what)
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
					if ms := mc.lookup(g.sess); ms != nil {
						mc.deliver(ms, muxItem{err: g})
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
		ms := mc.lookup(msg.sess)
		if ms == nil {
			if mc.tombstoned(msg.sess) {
				continue // a finished session's late frames: not a fault
			}
			m.MuxUnknownTokens.Inc()
			if terr := connFault(fmt.Sprintf("unknown mux session token %d", msg.sess)); terr != nil {
				return terr
			}
			continue
		}
		mc.deliver(ms, muxItem{m: msg})
	}
}

// register attaches one additional session from a tokened register envelope.
// Attach problems are per-frame outcomes (a framed error, possibly a
// connection-budget charge), never a connection kill; the returned error is
// non-nil only when the budget is spent.
func (mc *muxConn) register(reg message, connFault func(string) error) error {
	s := mc.s
	m := s.m()
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
		m.ProtocolErrors.Inc()
		mc.send(tok, message{Op: "error", Msg: fmt.Sprintf("mux session limit reached (%d)", mc.maxSessions)}) //nolint:errcheck
		return nil
	}
	id := obs.NewID()
	m.SessionsStarted.Inc()
	m.SessionsActive.Inc()
	log := s.logger().With("session", id, "remote", mc.remote, "conn", mc.connID)
	st := s.trackState(id, mc.remote, mc.connID)
	if err := mc.attach(tok, reg, id, st, log); err != nil {
		mc.attachFailed(tok, id, st, reg.App, err)
	}
	return nil
}

// attach starts one session's kernel, installs it in the table and launches
// its runner goroutine.
func (mc *muxConn) attach(tok uint64, reg message, id string, st *sessionState, log *slog.Logger) error {
	s := mc.s
	sess, err := s.startSession(reg, id, st, log)
	if err != nil {
		return err
	}
	// The session's flow-control credit: a conforming client holds at most
	// window configs plus a coalesced report+fetch in flight, so 2×window+4
	// only ever fills when the peer ignores the protocol's own pacing.
	ms := &muxSession{
		mc: mc, token: tok, id: id, st: st, sess: sess, log: log,
		inbox: make(chan muxItem, 2*sess.window+4),
		end:   SessionEnd{ID: id, App: reg.App},
	}
	if sess.warm {
		s.m().WarmStarts.Inc()
	}
	st.mu.Lock()
	st.snap.Proto = 3
	st.snap.FailureBudget = mc.budget
	st.snap.Mux = true
	st.mu.Unlock()
	log.Info("session registered",
		"app", reg.App, "dim", len(sess.names), "warm", sess.warm,
		"improved", reg.Improved, "max_evals", reg.MaxEvals,
		"window", sess.window, "mux_token", tok)
	mc.mu.Lock()
	mc.table[tok] = ms
	mc.attached++
	mc.mu.Unlock()
	mc.wg.Add(1)
	go mc.run(ms)
	return nil
}

// attachFailed closes out a session whose registration never succeeded:
// framed error on its token, failure accounting, state finished.
func (mc *muxConn) attachFailed(tok uint64, id string, st *sessionState, app string, err error) {
	s := mc.s
	m := s.m()
	m.ProtocolErrors.Inc()
	mc.send(tok, message{Op: "error", Msg: err.Error()}) //nolint:errcheck
	m.SessionsActive.Dec()
	m.SessionFailures.Inc()
	end := SessionEnd{ID: id, App: app, Err: err}
	s.finishState(st, end)
	if s.OnSessionEnd != nil {
		s.OnSessionEnd(end)
	}
}

// run is one session's goroutine: the same registered-reply + message-loop +
// kernel-unwind + bookkeeping tail a plain connection's handler runs.
func (mc *muxConn) run(ms *muxSession) {
	defer mc.wg.Done()
	s := mc.s
	m := s.m()
	lo := loop{
		tr: ms, send: ms.send, fail: s.failer(ms.send),
		tolerate: s.tolerator(&ms.end, ms.st, ms.id, mc.budget, ms.log),
		proto:    3, shard: mc.shard,
	}
	err := s.runRegistered(ms.sess, &ms.end, lo)
	// Unblock the kernel and wait for it to unwind; an abnormal end deposits
	// the partial trace before kernelDone closes (§4.2).
	close(ms.sess.abort)
	<-ms.sess.kernelDone
	ms.end.Warm = ms.sess.warm
	ms.end.Deposited = ms.sess.deposited
	ms.end.Err = err

	if ms.end.Completed {
		m.SessionsCompleted.Inc()
	}
	if ms.end.Deposited {
		m.Deposits.Inc()
	}
	if err != nil {
		m.SessionFailures.Inc()
		ms.log.Warn("session failed",
			"app", ms.end.App, "warm", ms.end.Warm, "completed", ms.end.Completed,
			"deposited", ms.end.Deposited, "faults", ms.end.Faults, "err", err)
	} else {
		ms.log.Info("session ended",
			"app", ms.end.App, "warm", ms.end.Warm, "completed", ms.end.Completed,
			"deposited", ms.end.Deposited, "faults", ms.end.Faults)
	}
	mc.detach(ms.token)
	s.finishState(ms.st, ms.end)
	if s.OnSessionEnd != nil {
		s.OnSessionEnd(ms.end)
	}
	m.SessionsActive.Dec()
}

// lookup resolves a live session token.
func (mc *muxConn) lookup(tok uint64) *muxSession {
	mc.mu.Lock()
	ms := mc.table[tok]
	mc.mu.Unlock()
	return ms
}

// deliver routes one inbox item to a session, evicting it if its
// flow-control credit is exhausted. Called only from the demux goroutine.
func (mc *muxConn) deliver(ms *muxSession, it muxItem) {
	select {
	case ms.inbox <- it:
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
	close(ms.inbox)
	ms.log.Warn("mux session evicted: flow-control credit exhausted")
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
// channel send wakes next, so each reply chain (demux → session → kernel →
// session → writer) runs depth-first, and a drain without the yield finds
// only the frame that woke the writer. Gosched lets the sessions woken by
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
// runner unwinds and deposits a partial trace), waits for all runners, then
// retires the writer.
func (mc *muxConn) teardown(err error) {
	term := err
	if term == nil {
		// A clean connection close mid-session reads as EOF per session —
		// exactly what a plain connection's loop would have seen.
		term = io.EOF
	}
	mc.mu.Lock()
	live := make([]*muxSession, 0, len(mc.table))
	for tok, ms := range mc.table {
		live = append(live, ms)
		delete(mc.table, tok)
		mc.tomb(tok)
	}
	mc.mu.Unlock()
	for _, ms := range live {
		ms.termErr = term
		close(ms.inbox)
	}
	mc.wg.Wait()
	mc.cw.close()
}
