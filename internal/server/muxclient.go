package server

// Session multiplexing (v4-mux), client side.
//
// Mux dials one connection and vends many independent *Client-compatible
// session handles over it. Each handle's Register attaches a session (the
// first one carries the "mux":true negotiation; later ones ride tokened
// register envelopes), after which the handle speaks the ordinary client
// API — Tune, TuneParallel, ReportAndFetch — unchanged: its transport
// routes frames by session token instead of owning a socket.
//
// One reader goroutine demultiplexes incoming frames to per-session
// channels. All sessions' outgoing frames go through one corkedWriter
// (mux.go), the type the server uses: its yield-once rule lets every session
// woken by the same read batch queue its next frame before the flush. On the
// benchmark's mux-fleet workload that takes the client from 2.04 to 9.75
// frames per flush.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSessionEvicted means the server evicted this session from its mux
// connection — its flow-control credit ran out (the client stopped draining
// replies, or pushed frames far past its pipeline window). The connection
// and its other sessions are unaffected; re-attaching a fresh session (or
// reconnecting) warm-starts from whatever this one deposited.
var ErrSessionEvicted = errors.New("harmony: mux session evicted")

// muxEvictedPrefix matches the server's eviction error message; the client
// turns such error frames into typed ErrSessionEvicted failures.
const muxEvictedPrefix = "session evicted"

// errMuxClosed is what a send or an attach returns once the mux is closed.
var errMuxClosed = fmt.Errorf("%w: mux closed", ErrServerGone)

// Mux multiplexes many tuning sessions over one v4-mux connection. Create
// one with DialMux or NewMux, vend session handles with Session, and Close
// it once every session is done (closing a handle detaches only that
// session).
type Mux struct {
	conn net.Conn
	br   *bufio.Reader
	fr   frameReader
	cw   *corkedWriter

	// Logger, when set, receives connection-scope diagnostics (token-0
	// error frames from the server, dropped frames). Nil discards.
	Logger *slog.Logger

	mu         sync.Mutex
	negotiated bool
	closed     bool
	next       uint64
	routes     map[uint64]chan muxItem
	readErr    error
	readDead   chan struct{} // closed by the reader once it has closed every route

	connErrs atomic.Int64
	dropped  atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// DialMux connects to a harmony server for multiplexed sessions. The mux
// negotiation itself happens on the first session's Register.
func DialMux(addr string, timeout time.Duration) (*Mux, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrServerGone, addr, err)
	}
	return NewMux(conn), nil
}

// NewMux wraps an established connection as a session multiplexer.
func NewMux(conn net.Conn) *Mux {
	mx := &Mux{
		conn: conn,
		// The shared socket carries every session's traffic; a larger read
		// buffer than a single-session client's amortizes the fan-in.
		br: bufio.NewReaderSize(conn, 64*1024),
		// 256 queued frames cover a fleet's sessions between two flushes;
		// past that, senders wait for the next one.
		cw:       newCorkedWriter(bufio.NewWriter(conn), 256, nil, nil),
		next:     muxToken1,
		routes:   map[uint64]chan muxItem{},
		readDead: make(chan struct{}),
	}
	mx.fr = frameReader{r: mx.br}
	return mx
}

// Session vends one session handle. The handle speaks binary framing by
// construction (mux is a v3 extension; RegisterOptions.Proto is moot) and
// shares the connection: closing it detaches the session, never the
// transport. Handles are independent — register and tune them from
// different goroutines freely.
func (mx *Mux) Session() *Client {
	h := &struct { // the handle and its transport, in one allocation
		c Client
		w muxWire
	}{}
	h.c.conn, h.c.proto, h.c.mux, h.c.tr = mx.conn, 3, mx, &h.w
	h.w.mx, h.w.c = mx, &h.c
	return &h.c
}

// Stats reports the outgoing frame and corked-flush (socket write) counts —
// frames/flushes is the write-side syscall amortization the mux exists for.
func (mx *Mux) Stats() (frames, flushes uint64) {
	return mx.cw.frames.Load(), mx.cw.flushes.Load()
}

// ConnErrors reports connection-scope incidents observed: token-0 error
// frames from the server and frames dropped for want of a route.
func (mx *Mux) ConnErrors() int64 { return mx.connErrs.Load() + mx.dropped.Load() }

// Close tears down the shared connection and returns once its reader and
// writer goroutines have exited. Sessions still attached observe a
// transport error on their next exchange.
func (mx *Mux) Close() error {
	mx.closeOnce.Do(func() {
		mx.mu.Lock()
		mx.closed = true
		started := mx.negotiated
		mx.mu.Unlock()
		err := mx.conn.Close()
		if errors.Is(err, net.ErrClosed) {
			err = nil
		}
		mx.closeErr = err
		if started {
			// The closed conn ends any read or write in progress.
			mx.cw.close()
			<-mx.readDead
		}
	})
	return mx.closeErr
}

// attach assigns the next session token, installs the route, and sends the
// register — as the plain-frame negotiation when this is the connection's
// first session, tokened otherwise.
func (mx *Mux) attach(t *muxWire, reg message) error {
	window := reg.Window
	if window < 1 {
		window = 1
	}
	in := make(chan muxItem, 2*window+4)
	mx.mu.Lock()
	if mx.closed {
		mx.mu.Unlock()
		return errMuxClosed
	}
	tok := mx.next
	mx.next++
	mx.routes[tok] = in
	first := !mx.negotiated
	mx.negotiated = true
	mx.mu.Unlock()
	t.token, t.in = tok, in

	if !first {
		reg.sess, reg.hasSess = tok, true
		return mx.cw.send(reg)
	}
	// The negotiation: magic preamble plus a plain (un-tokened) v3 register
	// carrying "mux":true, flushed synchronously before the reader and
	// writer goroutines exist — after it, every frame in both directions is
	// tokened. The goroutines start even when it fails, so Close always has
	// both to wait for: a failed negotiation closes the conn, which ends
	// them.
	reg.Mux = true
	fw := frameWriter{w: mx.cw.fw.w}
	_, err := fw.w.Write(v3Magic[:])
	if err == nil {
		err = fw.append(reg)
	}
	if err == nil {
		err = fw.w.Flush()
	}
	if err != nil {
		mx.conn.Close() //nolint:errcheck // the negotiation error is the one to report
	}
	mx.fr.mux = true
	go mx.reader()
	go mx.cw.run()
	return err
}

// detach removes a session's route; late frames for it are dropped by the
// reader. The route channel is never closed here — the reader owns closing.
func (mx *Mux) detach(tok uint64) {
	if tok == 0 {
		return
	}
	mx.mu.Lock()
	delete(mx.routes, tok)
	mx.mu.Unlock()
}

// reader demultiplexes incoming frames to session routes. On a terminal
// transport error it records the cause and closes every route — sessions
// observe it on their next recv.
func (mx *Mux) reader() {
	for {
		m, err := mx.fr.read()
		if err != nil {
			var g *garbageError
			if errors.As(err, &g) {
				if g.hasSess {
					mx.route(g.sess, muxItem{err: g})
				} else {
					mx.connErrs.Add(1)
					if mx.Logger != nil {
						mx.Logger.Warn("mux: undecodable frame", "err", g)
					}
				}
				continue
			}
			mx.mu.Lock()
			mx.readErr = err
			routes := mx.routes
			mx.routes = map[uint64]chan muxItem{}
			mx.mu.Unlock()
			for _, ch := range routes {
				close(ch)
			}
			// Last: Close returns once this is closed, and the reader must
			// have finished its work by then.
			close(mx.readDead)
			return
		}
		if m.sess == 0 {
			// Reserved token 0: a connection-scope error from the server
			// (unknown token, malformed frame). No session owns it.
			mx.connErrs.Add(1)
			if mx.Logger != nil {
				mx.Logger.Warn("mux: connection-scope server error", "msg", m.Msg)
			}
			continue
		}
		mx.route(m.sess, muxItem{m: m})
	}
}

// route delivers one item to a session's channel; frames for detached
// sessions (or a session that stopped draining) are dropped, never allowed
// to stall the shared reader.
func (mx *Mux) route(tok uint64, it muxItem) {
	mx.mu.Lock()
	ch := mx.routes[tok]
	mx.mu.Unlock()
	if ch == nil {
		mx.dropped.Add(1)
		return
	}
	select {
	case ch <- it:
	default:
		mx.dropped.Add(1)
		if mx.Logger != nil {
			mx.Logger.Warn("mux: session route full; frame dropped", "token", tok)
		}
	}
}

// muxWire is a session handle's transport: sends stamp the session token
// and ride the shared corked writer; recvs drain the routed channel. The
// handle's OpTimeout bounds each recv (the shared socket carries no
// per-session deadlines).
type muxWire struct {
	mx    *Mux
	c     *Client
	token uint64
	in    chan muxItem
}

func (t *muxWire) send(m message) error {
	if m.Op == "register" && t.token == 0 {
		return t.mx.attach(t, m)
	}
	if t.token == 0 {
		return fmt.Errorf("%w: mux session not registered", ErrProtocol)
	}
	m.sess, m.hasSess = t.token, true
	return t.mx.cw.send(m)
}

// sendBatch queues the messages back to back; the corked writer coalesces
// them (typically with other sessions' frames too) into one flush.
func (t *muxWire) sendBatch(ms ...message) error {
	for _, m := range ms {
		if err := t.send(m); err != nil {
			return err
		}
	}
	return nil
}

func (t *muxWire) recv() (message, error) {
	if t.in == nil {
		return message{}, fmt.Errorf("%w: mux session not registered", ErrProtocol)
	}
	var timeout <-chan time.Time
	if t.c != nil && t.c.OpTimeout > 0 {
		tm := time.NewTimer(t.c.OpTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case it, ok := <-t.in:
		if !ok {
			t.mx.mu.Lock()
			err := t.mx.readErr
			t.mx.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return message{}, err
		}
		if it.err != nil {
			return message{}, it.err
		}
		if it.m.Op == "error" && strings.HasPrefix(it.m.Msg, muxEvictedPrefix) {
			return message{}, fmt.Errorf("%w: server: %s", ErrSessionEvicted, it.m.Msg)
		}
		return it.m, nil
	case <-timeout:
		return message{}, os.ErrDeadlineExceeded
	}
}
