package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/obs"
	"harmony/internal/search"
)

// Typed client errors: applications distinguish retryable transport
// failures from fatal session errors with errors.Is.
var (
	// ErrServerGone means the transport failed: the server is unreachable,
	// closed the connection, or stopped answering within the deadline.
	// Reconnecting (a fresh Dial + Register) may succeed — and thanks to
	// the server's experience store the new session warm-starts from
	// whatever the lost session already measured.
	ErrServerGone = errors.New("harmony: server gone")
	// ErrProtocol means the conversation itself is broken — the server
	// rejected a message or replied out of protocol. Retrying the same
	// exchange will not help.
	ErrProtocol = errors.New("harmony: protocol error")
)

// Client is the application-side library: register tunable parameters, then
// alternate Fetch and Report until Fetch signals completion — or, against a
// pipelined (protocol v2) server, run TuneParallel to keep several
// measurements in flight at once.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	w    *bufio.Writer
	tr   transport
	// proto is the wire framing generation in use: 2 for the JSON line
	// protocol (the default), 3 after a binary-framing registration.
	proto int
	// mux is set on handles vended by Mux.Session: the transport shares a
	// multiplexed connection, so Register skips the preamble negotiation and
	// Close detaches the session without closing the socket.
	mux *Mux
	// wmu serializes writes: in a pipelined session several measurement
	// workers send reports and fetch credits on the same connection.
	wmu sync.Mutex
	// pair is sendPair's scratch: a persistent backing array for the
	// report+fetch coalesced write, so the per-measurement hot path never
	// allocates a variadic slice. Touched only under wmu.
	pair [2]message

	// OpTimeout bounds each protocol exchange (one send plus the matching
	// reply read). 0 means no deadline. Set it when the server could hang.
	// In a pipelined session it bounds each socket read, so it must exceed
	// a full measurement round, not just the network hop.
	OpTimeout time.Duration
	// Logger, when set, receives structured client-side transport
	// diagnostics: dial retries (set via DialOptions.Logger), op-deadline
	// expiries and connection loss. Nil discards.
	Logger *slog.Logger

	closeOnce sync.Once
	closeErr  error

	// observed is the latest workload characteristic vector set via
	// SetObserved; every subsequent report carries a copy until it changes.
	// An atomic pointer, not a field under wmu: measurement workers read it
	// per report while the application's monitoring goroutine updates it.
	observed atomic.Pointer[[]float64]

	names  []string
	best   *Best
	warm   bool
	window int
}

// SetObserved publishes the workload characteristic vector the application
// currently observes (same shape as RegisterOptions.Characteristics). Every
// subsequent report — on every framing and every Tune variant — carries it,
// feeding the server's in-session drift detector. Nil (or empty) stops
// attaching characteristics; clients that never call SetObserved send
// byte-identical reports to prior releases. Safe for concurrent use.
func (c *Client) SetObserved(chars []float64) {
	if len(chars) == 0 {
		c.observed.Store(nil)
		return
	}
	cp := append([]float64(nil), chars...)
	c.observed.Store(&cp)
}

// observedChars returns the current observed vector (nil when unset). The
// returned slice is the stored copy: readers must not mutate it, and
// SetObserved always stores a fresh copy.
func (c *Client) observedChars() []float64 {
	if p := c.observed.Load(); p != nil {
		return *p
	}
	return nil
}

// Best is the final answer of a tuning session.
type Best struct {
	Values search.Config
	Perf   float64
	Evals  int
}

// RegisterOptions tune a session.
type RegisterOptions struct {
	// Minimize flips the objective direction (default: maximize).
	Minimize bool
	// MaxEvals bounds the number of configurations the server will ask the
	// application to measure (0 = server default).
	MaxEvals int
	// Improved selects the evenly-distributed initial exploration (§4.1).
	Improved bool
	// App names the application. Sessions with the same App and parameter
	// specification share the server's experience database.
	App string
	// Characteristics describes the workload currently served (e.g. the
	// interaction frequency distribution). When set, the server's data
	// analyzer warm-starts this session from the closest prior session.
	Characteristics []float64
	// Window declares the pipeline depth (protocol v2): how many
	// configurations the client can measure concurrently. The server
	// grants at most its own cap; Client.Window reports the granted depth
	// after Register. 0 or 1 keeps the lockstep v1 exchange.
	Window int
	// Proto selects the wire framing generation: 0 (or 2) keeps the
	// line-oriented JSON framing whose bytes are pinned, 3 switches the
	// connection to length-prefixed binary frames before the register
	// message goes out (the client leads with the v3 magic preamble).
	// Binary framing composes with Window: the session semantics are
	// unchanged, only the encoding and the report acks differ. Register
	// must be the connection's first exchange for the switch to be legal.
	Proto int
}

// DialOptions configure connection establishment and per-operation
// deadlines.
type DialOptions struct {
	// Timeout bounds each individual dial attempt (default 2s).
	Timeout time.Duration
	// Retries is how many additional attempts follow a failed dial
	// (default 0: a single attempt).
	Retries int
	// Backoff is the delay before the first retry (default 50ms); it
	// doubles per retry up to MaxBackoff (default 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±this fraction (default 0.2) so a
	// thundering herd of reconnecting clients spreads out.
	Jitter float64
	// OpTimeout seeds the returned client's per-exchange deadline (0 =
	// none).
	OpTimeout time.Duration
	// Seed makes the jitter deterministic when non-zero (tests).
	Seed int64
	// Logger, when set, receives a warn-level record per failed dial
	// attempt (with the backoff chosen) and seeds the returned client's
	// Logger. Nil discards.
	Logger *slog.Logger
}

func (o *DialOptions) fill() {
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Backoff == 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Jitter == 0 {
		o.Jitter = 0.2
	}
}

// backoff returns the pause before retry attempt (0-based), with
// exponential growth, a cap, and symmetric jitter.
func (o DialOptions) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := o.Backoff
	for i := 0; i < attempt && d < o.MaxBackoff; i++ {
		d *= 2
	}
	if d > o.MaxBackoff {
		d = o.MaxBackoff
	}
	if o.Jitter > 0 {
		f := 1 + o.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Dial connects to a harmony server with a single attempt.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialWithOptions(addr, DialOptions{Timeout: timeout})
}

// DialWithOptions connects to a harmony server, retrying failed attempts
// with exponential backoff and jitter. The returned error wraps
// ErrServerGone when every attempt failed.
func DialWithOptions(addr string, opts DialOptions) (*Client, error) {
	opts.fill()
	// The jitter source is built lazily: the common case is a first-attempt
	// success, and seeding a rand.Rand per dial is measurable at
	// thousand-session scale.
	var rng *rand.Rand
	log := opts.Logger
	if log == nil {
		log = obs.Nop()
	}
	attempts := 1 + opts.Retries
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if rng == nil {
				seed := opts.Seed
				if seed == 0 {
					seed = time.Now().UnixNano()
				}
				rng = rand.New(rand.NewSource(seed))
			}
			pause := opts.backoff(attempt-1, rng)
			log.Warn("dial failed; backing off",
				"addr", addr, "attempt", attempt, "of", attempts,
				"backoff", pause, "err", lastErr)
			time.Sleep(pause)
		}
		conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
		if err == nil {
			if attempt > 0 {
				log.Info("dial succeeded after retries", "addr", addr, "attempts", attempt+1)
			}
			c := NewClientConn(conn)
			c.OpTimeout = opts.OpTimeout
			c.Logger = opts.Logger
			return c, nil
		}
		lastErr = err
	}
	log.Warn("dial exhausted all attempts", "addr", addr, "attempts", attempts, "err", lastErr)
	return nil, fmt.Errorf("%w: dial %s failed after %d attempt(s): %v",
		ErrServerGone, addr, attempts, lastErr)
}

// NewClientConn wraps an established connection (any net.Conn — a TCP
// socket, a TLS session, or a fault-injection wrapper in tests) as a
// Client speaking the JSON line framing. Register with a Proto of 3 to
// negotiate binary frames.
func NewClientConn(conn net.Conn) *Client {
	return &Client{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 16*1024),
		w:     bufio.NewWriter(conn),
		proto: 2,
	}
}

// wire returns the client's framing. Register picks it; a client that
// sends before registering speaks the JSON line framing.
func (c *Client) wire() transport {
	if c.tr == nil {
		c.tr = newJSONWire(c.br, c.w, c.beforeRead, c.beforeWrite)
	}
	return c.tr
}

// beforeRead/beforeWrite are the transport deadline hooks; they read
// OpTimeout at call time, so setting it after construction takes effect.
func (c *Client) beforeRead() {
	if c.OpTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.OpTimeout))
	}
}

func (c *Client) beforeWrite() {
	if c.OpTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.OpTimeout))
	}
}

// Proto reports the wire framing generation in use: 2 for the JSON line
// protocol, 3 after a binary-framing registration.
func (c *Client) Proto() int { return c.proto }

// closeQuitTimeout bounds the best-effort quit write in Close when no
// OpTimeout is configured: closing against a server that stopped draining
// its socket must not block forever.
const closeQuitTimeout = 500 * time.Millisecond

// Close tears down the connection. It is idempotent, safe on a nil client
// (the result of a failed Dial), and safe after a mid-session transport
// error. The goodbye is bounded: Close never blocks longer than the
// client's OpTimeout (or closeQuitTimeout when none is set), even against
// a server that has stopped draining its socket.
func (c *Client) Close() error {
	if c == nil || c.conn == nil {
		return nil
	}
	c.closeOnce.Do(func() {
		if c.mux != nil {
			// A mux session handle: say goodbye and detach the route; the
			// shared connection belongs to the Mux and stays up for its
			// peer sessions.
			if mw, ok := c.tr.(*muxWire); ok {
				if mw.token != 0 {
					c.send(message{Op: "quit"}) //nolint:errcheck // best effort
				}
				c.mux.detach(mw.token)
			}
			return
		}
		if c.OpTimeout == 0 {
			// send applies OpTimeout itself when set; this deadline covers
			// the otherwise-unbounded case.
			c.conn.SetWriteDeadline(time.Now().Add(closeQuitTimeout))
		}
		c.send(message{Op: "quit"}) // best effort; the read may already be gone
		err := c.conn.Close()
		if errors.Is(err, net.ErrClosed) {
			err = nil // the transport already died mid-session; that's fine
		}
		c.closeErr = err
	})
	return c.closeErr
}

// logTransport records a transport-level failure on the client's logger,
// distinguishing op-deadline expiries from other connection loss.
func (c *Client) logTransport(op string, err error) {
	if c.Logger == nil {
		return
	}
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	c.Logger.Warn("transport error", "op", op, "timeout", timeout,
		"op_timeout", c.OpTimeout, "err", err)
}

func (c *Client) send(m message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.wire().send(m); err != nil {
		c.logTransport("write "+m.Op, err)
		return fmt.Errorf("%w: write: %v", ErrServerGone, err)
	}
	return nil
}

// sendPair coalesces two messages into one flush through the client-owned
// scratch pair, so the report+fetch exchange that dominates a tuning session
// never allocates a variadic slice.
func (c *Client) sendPair(a, b message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pair[0], c.pair[1] = a, b
	err := c.wire().sendBatch(c.pair[:]...)
	c.pair[0], c.pair[1] = message{}, message{} // no stale slice references
	if err != nil {
		c.logTransport("write batch", err)
		return fmt.Errorf("%w: write: %v", ErrServerGone, err)
	}
	return nil
}

func (c *Client) recv() (message, error) {
	m, err := c.wire().recv()
	if err != nil {
		var g *garbageError
		switch {
		case errors.As(err, &g):
			// Undecodable reply: the conversation is broken, not the
			// transport — reconnect-and-retry cannot help.
			return message{}, fmt.Errorf("%w: %v", ErrProtocol, g)
		case errors.Is(err, errFrameTooBig):
			c.logTransport("read", err)
			return message{}, fmt.Errorf("%w: server sent a line over the 1 MiB frame cap", ErrProtocol)
		case errors.Is(err, io.EOF):
			c.logTransport("read", errors.New("connection closed"))
			return message{}, fmt.Errorf("%w: server closed the connection", ErrServerGone)
		case errors.Is(err, io.ErrUnexpectedEOF):
			c.logTransport("read", err)
			return message{}, fmt.Errorf("%w: connection died mid-frame", ErrServerGone)
		case errors.Is(err, ErrSessionEvicted):
			// Already typed by the mux transport; pass it through.
			c.logTransport("read", err)
			return message{}, err
		}
		c.logTransport("read", err)
		return message{}, fmt.Errorf("%w: read: %v", ErrServerGone, err)
	}
	if m.Op == "error" {
		return message{}, fmt.Errorf("%w: server: %s", ErrProtocol, m.Msg)
	}
	return m, nil
}

// Register declares the application's tunable parameters in RSL and starts
// the session. It returns the parameter names in configuration order.
func (c *Client) Register(rslText string, opts RegisterOptions) ([]string, error) {
	dir := "max"
	if opts.Minimize {
		dir = "min"
	}
	if opts.Proto >= 3 && c.mux == nil {
		// Binary framing from the first byte: the magic preamble is
		// buffered ahead of the register frame and both leave in one
		// write.
		c.wmu.Lock()
		if _, err := c.w.Write(v3Magic[:]); err != nil {
			c.wmu.Unlock()
			c.logTransport("write preamble", err)
			return nil, fmt.Errorf("%w: write: %v", ErrServerGone, err)
		}
		c.tr = newBinWire(c.br, c.w, c.beforeRead, c.beforeWrite)
		c.proto = 3
		c.wmu.Unlock()
	}
	err := c.send(message{
		Op: "register", RSL: rslText, Direction: dir,
		MaxEvals: opts.MaxEvals, Improved: opts.Improved,
		App: opts.App, Characteristics: opts.Characteristics,
		Window: opts.Window,
	})
	if err != nil {
		return nil, err
	}
	m, err := c.recv()
	if err != nil {
		return nil, err
	}
	if m.Op != "registered" {
		return nil, fmt.Errorf("%w: unexpected reply %q to register", ErrProtocol, m.Op)
	}
	c.names = m.Names
	c.warm = m.Warm
	c.window = m.Window
	if c.window < 1 {
		c.window = 1 // absent means lockstep v1
	}
	return m.Names, nil
}

// Window reports the pipeline depth the server granted at registration:
// 1 for a lockstep session, the (possibly capped) requested depth for a
// pipelined one. Only meaningful after Register.
func (c *Client) Window() int {
	if c.window < 1 {
		return 1
	}
	return c.window
}

// WarmStarted reports whether the server seeded this session from a prior
// session's experience (only meaningful after Register).
func (c *Client) WarmStarted() bool { return c.warm }

// Names returns the registered parameter names.
func (c *Client) Names() []string { return c.names }

// Fetch asks the server for the next configuration to measure. done is true
// when tuning has finished; the final answer is then available from BestResult.
func (c *Client) Fetch() (cfg search.Config, done bool, err error) {
	cfg, _, done, err = c.FetchAt()
	return cfg, done, err
}

// FetchAt asks the server for the next configuration together with the
// requested measurement fidelity: 0 (or 1) means a full measurement, a
// fraction in (0, 1) asks for a deterministically cheaper partial one (a
// multi-fidelity server's triage rungs). Single-fidelity servers never set
// the field, so FetchAt degrades to Fetch.
//
// The returned configuration is the caller's: it stays valid after later
// calls, and it never aliases another returned configuration, so writing
// to it or appending to it changes no other. Over binary framing its
// values share a block with other configurations the connection read;
// keeping one keeps that block.
func (c *Client) FetchAt() (cfg search.Config, fidelity float64, done bool, err error) {
	if err := c.send(message{Op: "fetch"}); err != nil {
		return nil, 0, false, err
	}
	return c.fetchReply()
}

// fetchReply reads and classifies the server's answer to a fetch credit.
func (c *Client) fetchReply() (cfg search.Config, fidelity float64, done bool, err error) {
	m, err := c.recv()
	if err != nil {
		return nil, 0, false, err
	}
	switch m.Op {
	case "config":
		return search.Config(m.Values), m.Fidelity, false, nil
	case "best":
		c.best = &Best{Values: search.Config(m.Values), Perf: m.Perf, Evals: m.Evals}
		return nil, 0, true, nil
	}
	return nil, 0, false, fmt.Errorf("%w: unexpected reply %q to fetch", ErrProtocol, m.Op)
}

// Report sends the measured performance of the last fetched configuration.
// On the JSON framings it waits for the server's acknowledgement; binary
// v3 does not acknowledge reports (the next config is the flow control),
// so the call returns as soon as the report is written.
func (c *Client) Report(perf float64) error {
	return c.ReportAt(perf, 0)
}

// ReportAt reports a measurement taken at the given fidelity, echoing the
// fidelity the matching config requested. Fidelity 0 (or ≥1) keeps the
// field off the wire — the classic full-fidelity report, byte-identical.
func (c *Client) ReportAt(perf, fidelity float64) error {
	if err := c.send(c.report(perf, fidelity)); err != nil {
		return err
	}
	if c.proto >= 3 {
		return nil
	}
	m, err := c.recv()
	if err != nil {
		return err
	}
	if m.Op != "ok" {
		return fmt.Errorf("%w: unexpected reply %q to report", ErrProtocol, m.Op)
	}
	return nil
}

// ReportAndFetch reports the last configuration's performance and asks for
// the next one as a single exchange. Over binary v3 framing the report and
// the fetch leave in one socket write and only the config reply crosses
// back — one write plus one read per measurement, half the syscalls of
// Report-then-Fetch; over the JSON framings it degrades to exactly that
// pair, byte-identical to prior releases.
func (c *Client) ReportAndFetch(perf float64) (cfg search.Config, done bool, err error) {
	cfg, _, done, err = c.ReportAndFetchAt(perf, 0)
	return cfg, done, err
}

// ReportAndFetchAt is the fidelity-aware ReportAndFetch: it echoes the
// reported measurement's fidelity and returns the next configuration's
// requested fidelity. The configuration is the caller's, as from FetchAt.
func (c *Client) ReportAndFetchAt(perf, reported float64) (cfg search.Config, fidelity float64, done bool, err error) {
	if c.proto < 3 {
		if err := c.ReportAt(perf, reported); err != nil {
			return nil, 0, false, err
		}
		return c.FetchAt()
	}
	if err := c.sendPair(c.report(perf, reported), message{Op: "fetch"}); err != nil {
		return nil, 0, false, err
	}
	return c.fetchReply()
}

// report builds the report message every Tune variant sends: the
// measurement, its wire fidelity and the observed characteristics (see
// SetObserved). Pipelined callers add the correlation id.
func (c *Client) report(perf, fidelity float64) message {
	return message{Op: "report", Perf: perf, Fidelity: wireFidelity(fidelity),
		Characteristics: c.observedChars()}
}

// wireFidelity normalizes a fidelity for the wire: only a genuine partial
// fidelity in (0, 1) is carried; 0, 1 and out-of-range values collapse to
// the absent field, keeping full-fidelity exchanges byte-identical.
func wireFidelity(f float64) float64 {
	if f > 0 && f < 1 {
		return f
	}
	return 0
}

// BestResult returns the session's final answer once Fetch reported done.
func (c *Client) BestResult() (*Best, bool) {
	return c.best, c.best != nil
}

// Tune runs the whole fetch/measure/report loop against the given measure
// function and returns the final answer. Each measurement after the first
// fetch rides a ReportAndFetch exchange — on the JSON framings that is the
// classic report/ok/fetch/config sequence unchanged; on binary v3 it is
// one write and one read per configuration.
func (c *Client) Tune(measure func(search.Config) float64) (*Best, error) {
	return c.TuneAt(func(cfg search.Config, _ float64) float64 { return measure(cfg) })
}

// TuneAt runs the whole tuning loop against a fidelity-aware measure
// function: a multi-fidelity server's triage rungs arrive with a fidelity
// in (0, 1) and the application measures over that fraction of its full
// horizon (cheaper, noisier); full-fidelity requests arrive as 0. Against
// a single-fidelity server every call sees fidelity 0 and the exchanges
// are byte-identical to Tune.
func (c *Client) TuneAt(measure func(search.Config, float64) float64) (*Best, error) {
	cfg, fid, done, err := c.FetchAt()
	for {
		if err != nil {
			return nil, err
		}
		if done {
			best, _ := c.BestResult()
			return best, nil
		}
		cfg, fid, done, err = c.ReportAndFetchAt(measure(cfg, fid), fid)
	}
}

// FetchAsync sends one fetch credit without waiting for the reply — the
// protocol v2 primitive behind TuneParallel. The matching config (or the
// final best) arrives later on the socket; something must be reading it
// (TuneParallel's demultiplexer, or the caller's own reader).
func (c *Client) FetchAsync() error {
	return c.send(message{Op: "fetch"})
}

// ReportID sends the measured performance of the configuration with the
// given correlation id — the protocol v2 primitive behind TuneParallel.
// Unlike Report it does not wait for an acknowledgement: pipelined servers
// do not ack reports (the next config is the flow control), and errors
// surface on the next read.
func (c *Client) ReportID(id int, perf float64) error {
	return c.ReportIDAt(id, perf, 0)
}

// ReportIDAt is the fidelity-aware ReportID, echoing the fidelity the
// correlated config requested (0 for a full measurement).
func (c *Client) ReportIDAt(id int, perf, fidelity float64) error {
	m := c.report(perf, fidelity)
	m.id, m.hasID = id, true
	return c.send(m)
}

// TuneParallel runs the whole tuning session with up to `workers`
// measurements in flight at once against a pipelined (protocol v2) server.
// Register must have declared a Window; workers beyond the granted window
// cannot be fed and are not started, and a granted window of 1 (a lockstep
// server, or a v1-era deployment) degrades to the sequential Tune — so the
// call is safe against any server. The measure function is called from
// several goroutines concurrently and must be safe for that.
//
// One goroutine owns all socket reads and demultiplexes configs to the
// worker pool by correlation id; workers report results and replenish
// their fetch credit, so the server always has work queued. On a transport
// or protocol error the session is unrecoverable: close the client and
// (thanks to the server's experience store) reconnect to warm-start from
// whatever this session already measured.
func (c *Client) TuneParallel(measure func(search.Config) float64, workers int) (*Best, error) {
	return c.TuneParallelAt(func(cfg search.Config, _ float64) float64 { return measure(cfg) }, workers)
}

// TuneParallelAt is the fidelity-aware TuneParallel: each in-flight job
// carries the fidelity its config requested (0 = full), the measure
// function honours it, and the report echoes it. Against a
// single-fidelity server it is byte-identical to TuneParallel.
func (c *Client) TuneParallelAt(measure func(search.Config, float64) float64, workers int) (*Best, error) {
	if workers > c.Window() {
		workers = c.Window()
	}
	if workers <= 1 {
		return c.TuneAt(measure)
	}

	type job struct {
		id  int
		fid float64
		cfg search.Config
	}
	var (
		jobs     = make(chan job, c.Window())
		done     = make(chan struct{}) // closed once best arrived
		failed   = make(chan struct{}) // closed on the first terminal error
		failOnce sync.Once
		termErr  error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			termErr = err
			close(failed)
		})
	}

	// The demultiplexer: the only goroutine that reads the socket.
	go func() {
		for {
			m, err := c.recv()
			if err != nil {
				fail(err)
				return
			}
			switch m.Op {
			case "config":
				id := 0
				if m.hasID {
					id = m.id
				}
				select {
				case jobs <- job{id: id, fid: m.Fidelity, cfg: search.Config(m.Values)}:
				case <-failed:
					return
				}
			case "best":
				c.best = &Best{Values: search.Config(m.Values), Perf: m.Perf, Evals: m.Evals}
				close(done)
				return
			case "ok":
				// A lockstep-style ack; harmless noise in a pipelined session.
			default:
				fail(fmt.Errorf("%w: unexpected reply %q in pipelined session", ErrProtocol, m.Op))
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		// Prime one credit per worker; the pool keeps them replenished.
		if err := c.FetchAsync(); err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-failed:
					return
				case j := <-jobs:
					r := c.report(measure(j.cfg, j.fid), j.fid)
					r.id, r.hasID = j.id, true
					// One flush for the report and the replenishing fetch
					// credit: a single socket write per measurement.
					err := c.sendPair(r, message{Op: "fetch"})
					if err != nil {
						// A write racing the final best is benign: the
						// session is already over.
						select {
						case <-done:
						default:
							fail(err)
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
		return c.best, nil
	default:
	}
	<-failed
	return nil, termErr
}
