package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/drift"
	"harmony/internal/evalcache"
	"harmony/internal/expdb"
	"harmony/internal/history"
	"harmony/internal/mfsearch"
	"harmony/internal/obs"
	"harmony/internal/rsl"
	"harmony/internal/search"
)

// Server hosts tuning sessions, one per client connection.
//
// The server is designed to be long-lived: the cross-run experience database
// (§4.2) only pays off if the server survives client crashes, stalled
// connections, partial writes and garbage bytes without corrupting sessions.
// The robustness knobs below (IdleTimeout, WriteTimeout, FailureBudget) bound
// how much misbehaviour one client can inflict, and Shutdown drains in-flight
// sessions with a hard cutoff.
type Server struct {
	// MaxEvalsCap bounds per-session budgets regardless of what clients
	// request (default 10,000).
	MaxEvalsCap int
	// IdleTimeout disconnects clients that send nothing for this long
	// (0 = no limit). Measuring one configuration must fit inside it.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write (0 = no limit), so a client that
	// stops draining its socket cannot wedge a session goroutine forever.
	WriteTimeout time.Duration
	// MaxWindow caps the pipeline depth a client may declare at
	// registration (protocol v2): sessions asking for more are granted this
	// much. 0 means DefaultMaxWindow; negative (or 1) forces every session
	// into the lockstep v1 exchange, which is also how tests exercise
	// v2-client-versus-lockstep-server interop.
	MaxWindow int
	// FailureBudget is how many per-session faults (garbage lines,
	// non-finite performance reports) the server tolerates before failing
	// the session. 0 means the default of 3; negative means zero tolerance.
	// Tolerated non-finite reports score the pending configuration with the
	// worst-case penalty (search.FailurePenalty) so the simplex moves on
	// instead of wedging.
	FailureBudget int
	// Logger receives structured session-level events (session start/end,
	// tolerated faults, partial-trace deposits, shutdown progress). Every
	// record carries the session ID. Nil discards. Set it before Listen.
	Logger *slog.Logger
	// Metrics, when set, receives the server's counter updates (sessions
	// started/active/completed/failed/severed, failure-budget spend,
	// protocol errors, deposits, warm starts, drain durations). Build it
	// with NewMetrics(registry); nil disables metrics at ~zero cost. Set
	// it before Listen.
	Metrics *Metrics
	// Tracer, when set, receives every session's typed tuning events
	// (evaluations, simplex operations, seeds, convergence decisions,
	// failure-budget charges), each stamped with the session ID so one
	// shared sink — e.g. an obs.JSONL behind harmonyd's -trace-out —
	// interleaves sessions demultiplexably. The sink must be safe for
	// concurrent Emit. Set it before Listen.
	Tracer search.Tracer
	// OnSessionEnd, when set, is called once per session after its kernel
	// has finished, from the session's goroutine. A plain connection's
	// session ends after the connection is closed and released from the
	// server's connection table; a mux session ends while its shared
	// connection may still carry peers. Intended for metrics and tests.
	OnSessionEnd func(SessionEnd)
	// Experience is the cross-session prior-run store: sessions that
	// declare workload characteristics deposit their tuning traces and
	// warm-start from the closest prior session (§4.2). Nil selects an
	// in-memory expdb store with the default compaction bounds (lost on
	// restart); wire NewDurableStore over expdb.Open for state that
	// survives kill -9, or over expdb.NewMemory for other bounds. Set it
	// before Listen.
	Experience Store
	// EvalCache selects the measure-once evaluation cache scope: CacheOff
	// (the default) keeps the historical behaviour, CacheSession gives each
	// session a private cache warm-filled from the experience store, and
	// CacheShared shares one cache across the sessions of one (app, spec)
	// namespace. Exact-only caching is
	// trajectory-preserving for deterministic objectives. Set before Listen.
	EvalCache CacheScope
	// EstimateGate enables the §4.3 estimation-gated short-circuit on top
	// of the exact-hit memo: probes whose k-NN support is close and tight
	// are answered from the triangulation plane fit instead of a client
	// round-trip. Gated answers steer the search (they are committed like
	// measurements but flagged Estimated and excluded from experience
	// deposits), so the gate is opt-in. Ignored when EvalCache is CacheOff.
	EstimateGate bool
	// GateOptions tune the estimation gate; zero values select the
	// conservative defaults (see evalcache.GateOptions).
	GateOptions evalcache.GateOptions
	// CacheMetrics, when set, receives the harmony_eval_cache_* counter
	// family (hits, misses, estimated, saved seconds, size).
	// Build it with evalcache.NewMetrics(registry); nil disables.
	CacheMetrics *evalcache.Metrics
	// MaxMuxSessions caps how many sessions one multiplexed (v4-mux)
	// connection may host concurrently. 0 means DefaultMaxMuxSessions;
	// negative refuses mux negotiation entirely (the register is answered
	// with a protocol error). Set it before Listen.
	MaxMuxSessions int
	// SearchKernel selects the per-session tuning kernel: "" or "simplex"
	// (the historical Nelder–Mead loop, trajectory-pinned) or "hyperband"
	// (multi-fidelity successive halving over reduced-fidelity probes,
	// seeded by the experience prior, with the same simplex as its
	// full-fidelity polish). Hyperband sessions ask clients for cheap
	// partial measurements via the config message's fidelity field;
	// clients that predate the field simply measure in full. Set it
	// before Listen.
	SearchKernel string
	// DriftDetect enables in-session workload drift detection (§4.2
	// extended to continuous tuning): sessions that registered workload
	// characteristics maintain an EWMA of the characteristics their reports
	// carry (Client.SetObserved) and, when the live vector leaves the
	// matched centroid for a full hysteresis window, deposit the finished
	// phase's trace as its own experience (each phase deposits under its
	// own vector through the session's one workload identity: the
	// registered vector, then the live vector at each boundary), flush the
	// estimation gate's geometric history, re-match the classifier against
	// the live vector and fund a warm in-session re-tune from the
	// incumbent best — instead of converging on a configuration tuned for
	// traffic that no longer exists. Stationary workloads are unaffected: the detector never
	// trips, no drift events are emitted, and trajectories are identical
	// to detection being off. Note the gate-flush scope: the estimation
	// gate is shared by every session in one (app, spec) namespace, and
	// drift detection assumes those sessions observe the same live
	// application — one session's drift flushes the shared gate (and its
	// open calibration window) for all of them. Concurrent sessions of one
	// key tuning *independent* application instances with different traffic
	// should not enable drift detection on a shared namespace. Set it
	// before Listen.
	DriftDetect bool
	// DriftOptions tune the detector (thresholds, EWMA weight, hysteresis
	// window); zero values select the drift package defaults.
	DriftOptions drift.Options

	lnMu     sync.Mutex
	listener net.Listener
	conns    connTable
	wg       sync.WaitGroup

	// stateMu guards the session-state registry (running map + finished
	// ring). Hot-path updates never take it: each session writes through
	// its own sessionState.
	stateMu  sync.RWMutex
	states   map[string]*sessionState
	doneRing []*sessionState
	doneNext int

	// acceptStalled is the unix-nano timestamp of the first Accept failure
	// of the current retry streak (0 while accepts succeed) — the
	// accept-loop liveness input for /healthz.
	acceptStalled atomic.Int64

	// expOnce guards the lazy default construction of Experience.
	expOnce sync.Once

	// cacheMu guards caches, the shared-scope per-namespace registry.
	cacheMu sync.Mutex
	caches  map[string]*namespaceCache
}

// DefaultMaxWindow is the pipeline depth cap applied when Server.MaxWindow
// is zero. It bounds both the per-session outstanding-configuration count
// and the kernel's concurrent measurement fan-out.
const DefaultMaxWindow = 32

// maxWindow resolves the server's pipeline cap.
func (s *Server) maxWindow() int {
	switch {
	case s.MaxWindow == 0:
		return DefaultMaxWindow
	case s.MaxWindow < 1:
		return 1
	}
	return s.MaxWindow
}

// Search kernel names for Server.SearchKernel and the -search flag.
const (
	// KernelSimplex is the historical Nelder–Mead kernel (the default).
	KernelSimplex = "simplex"
	// KernelHyperband is the multi-fidelity successive-halving kernel.
	KernelHyperband = "hyperband"
)

// ParseSearchKernel validates the -search flag values.
func ParseSearchKernel(v string) (string, error) {
	switch v {
	case "", KernelSimplex:
		return KernelSimplex, nil
	case KernelHyperband:
		return KernelHyperband, nil
	}
	return "", fmt.Errorf("server: unknown search kernel %q (want simplex or hyperband)", v)
}

// kernelSeed derives the hyperband sampling seed from the session's
// namespace key and declared workload — not from the random session ID —
// so identical registrations draw identical candidates: the trajectory is
// reproducible across reconnects and independent of the wire framing.
func kernelSeed(key string, chars []float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	var b [8]byte
	for _, c := range chars {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:]) //nolint:errcheck
	}
	return h.Sum64()
}

// store resolves the experience backend, building the default in-memory
// store on first use.
func (s *Server) store() Store {
	s.expOnce.Do(func() {
		if s.Experience == nil {
			s.Experience = NewDurableStore(expdb.NewMemory(expdb.Options{}), s.logger())
		}
	})
	return s.Experience
}

// ExperienceStore exposes the resolved experience backend (building the
// default in-memory store on first use) — the control plane's browse and
// prune surface.
func (s *Server) ExperienceStore() Store { return s.store() }

// SessionEnd summarizes one finished connection for the OnSessionEnd hook.
type SessionEnd struct {
	// ID is the server-assigned session/trace identifier — the same ID
	// stamped on the session's log records and tracer events.
	ID string
	// App is the application name from the registration ("" before one).
	App string
	// Warm reports whether prior experience seeded the session.
	Warm bool
	// Completed reports whether the kernel delivered a final best to the
	// client.
	Completed bool
	// Deposited reports whether a trace — possibly partial, on abnormal
	// disconnect — entered the experience store.
	Deposited bool
	// Faults counts tolerated per-session faults (garbage lines,
	// non-finite reports).
	Faults int
	// Err is the terminal error, nil for a clean quit or best delivery.
	Err error
}

// NewServer returns a server with defaults.
func NewServer() *Server {
	return &Server{MaxEvalsCap: 10_000}
}

// connTable tracks live connections for Shutdown's hard cutoff: one map
// under one mutex, with the closed flag under the same lock. Track checks
// closed while holding it, so a Track racing Close either fails or lands
// before the sweep that severs it; no connection outlives the cutoff. The
// table is touched once per connection, never per exchange, so one lock
// is enough. The zero value is ready to use.
type connTable struct {
	mu     sync.Mutex
	closed bool
	seq    uint64
	conns  map[uint64]net.Conn
}

// Track registers a live connection and returns its token. It reports
// false when the table is closed (the server is shutting down).
func (t *connTable) Track(conn net.Conn) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, false
	}
	if t.conns == nil {
		t.conns = map[uint64]net.Conn{}
	}
	t.seq++
	t.conns[t.seq] = conn
	return t.seq, true
}

// Untrack removes a connection by its Track token.
func (t *connTable) Untrack(token uint64) {
	t.mu.Lock()
	delete(t.conns, token)
	t.mu.Unlock()
}

// Close marks the table closed (new Tracks fail) and severs every tracked
// connection, returning how many it closed.
func (t *connTable) Close() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, conn := range t.conns {
		conn.Close()
	}
	severed := len(t.conns)
	t.conns = nil
	return severed
}

// MarkClosed flips the closed flag without severing anything — the drain
// phase of a graceful shutdown.
func (t *connTable) MarkClosed() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// Closed reports whether the table has been closed.
func (t *connTable) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Len counts tracked connections.
func (t *connTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// logger resolves the server's structured logger: Logger when set, a
// discard logger otherwise.
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return obs.Nop()
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines until
// Close or Shutdown.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lnMu.Lock()
	if s.conns.Closed() {
		s.lnMu.Unlock()
		ln.Close()
		return nil, errors.New("server: already closed")
	}
	s.listener = ln
	s.lnMu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// acceptLoop accepts connections until the listener is closed. Transient
// Accept errors — EMFILE/ENFILE under descriptor pressure, ECONNABORTED,
// or anything else that is not the listener going away — are retried with
// capped exponential backoff instead of silently killing the loop: a
// server that stops accepting but still answers /healthz is the worst kind
// of down. Only net.ErrClosed (Close/Shutdown closed the listener) ends
// the loop.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed: the one legitimate exit
			}
			s.acceptStalled.CompareAndSwap(0, time.Now().UnixNano())
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			s.m().AcceptRetries.Inc()
			s.logger().Warn("accept failed; retrying", "err", err, "backoff", backoff)
			time.Sleep(backoff)
			// Shutdown may have closed the listener while we slept; the
			// next Accept returns net.ErrClosed and exits cleanly.
			continue
		}
		backoff = 0
		s.acceptStalled.Store(0)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// handle logs its own end (structured, with session ID)
			// and reports it through OnSessionEnd.
			s.handle(conn) //nolint:errcheck
		}()
	}
}

// Shutdown gracefully stops the server: it stops accepting connections,
// lets in-flight sessions drain, and — if ctx expires first — severs the
// remaining connections (the hard cutoff). Sessions cut off mid-tuning
// still deposit their partial traces into the experience store. Shutdown
// returns nil when everything drained in time and ctx.Err() after a cutoff.
func (s *Server) Shutdown(ctx context.Context) error {
	start := time.Now()
	s.conns.MarkClosed()
	s.lnMu.Lock()
	ln := s.listener
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		drain := time.Since(start)
		s.m().DrainSeconds.Observe(drain.Seconds())
		s.flushExperience()
		s.logger().Info("shutdown: all sessions drained", "drain", drain)
		return nil
	case <-ctx.Done():
	}
	// Hard cutoff: sever every remaining connection. Sessions unwind their
	// kernels, deposit partial traces, and the wait completes.
	severed := s.conns.Close()
	<-done
	drain := time.Since(start)
	s.m().SessionsSevered.Add(severed)
	s.m().DrainSeconds.Observe(drain.Seconds())
	// Severed sessions deposited partial traces while unwinding; make
	// those durable before reporting the shutdown done.
	s.flushExperience()
	if severed > 0 {
		s.logger().Warn("shutdown: hard cutoff severed connections",
			"severed", severed, "drain", drain)
	}
	return ctx.Err()
}

// flushExperience pushes every deposited trace to stable storage on the
// shutdown drain path — the last act before the process exits.
func (s *Server) flushExperience() {
	if err := s.store().Flush(); err != nil {
		s.logger().Error("experience store flush failed", "err", err)
	}
}

// AcceptLiveness is the accept path's /healthz check: nil while the
// listener is bound and accepting. It reports shutdown, a never-bound
// listener, and an accept loop that has been failing (EMFILE pressure and
// the like) for more than a few seconds — the "up but not accepting" state
// that is otherwise invisible from outside.
func (s *Server) AcceptLiveness() error {
	if s.conns.Closed() {
		return errors.New("server: shutting down")
	}
	s.lnMu.Lock()
	bound := s.listener != nil
	s.lnMu.Unlock()
	if !bound {
		return errors.New("server: listener not bound")
	}
	if t := s.acceptStalled.Load(); t != 0 {
		if stall := time.Since(time.Unix(0, t)); stall > 5*time.Second {
			return fmt.Errorf("server: accept loop failing for %s", stall.Round(time.Second))
		}
	}
	return nil
}

// Close stops the server immediately: no drain, connections are severed and
// in-flight sessions unwind (depositing partial traces) before Close
// returns.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown goes straight to the hard cutoff
	if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// session is one tuning session from its first byte to its end-of-session
// bookkeeping: its identity and state twin, its wire, and — once
// registration succeeds — its kernel, which runs on the session's own
// goroutine and measures through the wire. A plain connection carries one
// session; a mux connection carries one per attached token. Either way the
// session opens in openSession, registers in register, runs serve and ends
// in endSession.
type session struct {
	srv *Server
	id  string
	// remote and connID are the peer's address and the connection's name in
	// the control plane: with id (and token on a mux connection), the
	// identity each of the session's log records leads with (see logAttrs).
	remote, connID string
	end            SessionEnd
	// budget is how many faults the session tolerates before it fails.
	budget int
	// state is the session's control-plane twin (never nil): the trace
	// stream and the exchange keep it current, the API snapshots it.
	state *sessionState

	// tr is a plain connection's framing, read on the session's goroutine.
	// A mux session has no tr: in is its inbox, fed by the connection's
	// demux, and mc is its connection, whose corked writer sends its
	// replies.
	tr transport
	in chan muxItem
	mc *muxConn
	// termErr is the terminal read condition, written before in closes.
	termErr error
	// proto is the negotiated framing generation: 2 for the JSON line
	// protocol (v1/v2 share it), 3 for binary frames, mux included.
	proto int
	// token is the session's v4-mux token; 0 on a plain connection.
	token uint64

	// The kernel and its exchange, set by startSession.
	names []string
	dir   search.Direction
	// penalty is the worst-case performance used to score failed
	// evaluations (search.FailurePenalty for the session's direction).
	penalty float64
	// toWire maps a configuration of the searched space (normalized
	// coordinates for restricted specs) to the client-facing parameter
	// values.
	toWire func(search.Config) []int
	// window is the granted pipeline depth: how many configurations may be
	// outstanding at once and how many points the kernel measures
	// concurrently. 1 is the lockstep v1 exchange.
	window int
	// credits counts fetches received and not yet answered; out holds the
	// outstanding configurations in dispatch order (at most window, so a
	// scan finds a report's); nextID is the next correlation id.
	credits, nextID int
	out             []outstanding
	// tune runs the kernel to its end: the final result, or nil once the
	// session ended with the returned error.
	tune func() (*search.Result, error)
	// deposited reports that the session's trace entered the store.
	deposited bool
	workload
}

// workload is a session's workload identity (§4.2): the class of runs it
// was seeded from and deposits into. startSession sets it; deposit and
// match are the session's only calls into the experience store.
type workload struct {
	// key is the (app, spec) namespace.
	key string
	// chars is the vector the current phase deposits under: the registered
	// characteristics, then each drift phase's live vector.
	chars []float64
	// cursor is the deposit cursor: the trace before it was deposited at
	// an earlier drift boundary, under that phase's vector.
	cursor int
	// prior holds the training stage's seeds from the matched experience
	// (history.Experience.Seeds, k = dim+1): the warm simplex seeds and the
	// multi-fidelity sampling prior. priorBest is the experience's recorded
	// best; a warm session whose measured start confirms it stops early
	// (search.NelderMeadOptions.PriorBest).
	prior     []search.Config
	priorBest *float64
	// layer is the namespace's measure-once layer, nil when the eval cache
	// is off.
	layer *evalcache.Layer
	// detector is the session's workload-drift detector, nil unless the
	// server enables detection and the registration carried
	// characteristics. drifted hands a detector trip from the exchange to
	// the session's next convergence decision.
	detector *drift.Detector
	drifted  bool
}

// warm reports whether a prior experience seeded the session.
func (w *workload) warm() bool { return len(w.prior) > 0 }

// deposit files the trace past the deposit cursor under the current
// phase's vector and advances the cursor. Measured() keeps gate estimates
// out: an estimate must never masquerade as prior-run truth. It reports
// whether anything was stored.
func (sess *session) deposit(tr search.Trace) bool {
	stored := sess.srv.store().Record(sess.key, sess.chars, sess.dir, tr[sess.cursor:].Measured())
	sess.cursor = len(tr)
	return stored
}

// match returns the stored experience closest to chars in the session's
// namespace, or nil, and the centroid the drift detector measures
// against: the experience's characteristics, or chars itself.
func (sess *session) match(chars []float64) (*history.Experience, []float64) {
	if exp, ok := sess.srv.store().Match(sess.key, chars); ok {
		return exp, exp.Characteristics
	}
	return nil, chars
}

// outstanding is one configuration sent and not yet reported: its
// correlation id and the batch probe its report resolves.
type outstanding struct {
	id int
	p  *search.Probe
}

// sessionEnd unwinds the kernel when the wire ends the session mid-tuning:
// err is the session's terminal error, nil for a quit or a clean close.
type sessionEnd struct{ err error }

// send writes one reply: through the connection's framing on a plain
// connection, token-stamped through the corked writer on a mux one.
func (sess *session) send(m message) error {
	if sess.mc != nil {
		return sess.mc.send(sess.token, m)
	}
	return sess.tr.send(m)
}

// Emit implements search.Tracer as the session's trace stream: it stamps
// the session ID on each event and hands it to the state twin and then to
// the server's Tracer, so the control plane sees exactly what the JSONL
// trace records.
func (sess *session) Emit(e search.Event) {
	if e.Session == "" {
		e.Session = sess.id
	}
	sess.state.Emit(e)
	if t := sess.srv.Tracer; t != nil {
		t.Emit(e)
	}
}

// logAttrs emits one record on the server's logger. Its attributes lead
// with the session's identity — session, remote, conn and, on a mux
// connection, mux_token — in the order a logger.With would have put them,
// but built only for a record the logger keeps.
func (sess *session) logAttrs(level slog.Level, msg string, attrs ...slog.Attr) {
	logIdentity(sess.srv.logger(), level, msg, sess.id, sess.remote, sess.connID, sess.token, attrs)
}

// logIdentity emits one record with the identity attributes of a session
// (token 0: none) ahead of attrs, when the logger is enabled at level. Its
// source is the caller of the caller.
func logIdentity(l *slog.Logger, level slog.Level, msg, id, remote, connID string, token uint64, attrs []slog.Attr) {
	ctx := context.Background()
	if !l.Enabled(ctx, level) {
		return
	}
	var pc [1]uintptr
	runtime.Callers(3, pc[:]) // skip Callers, logIdentity and its caller
	r := slog.NewRecord(time.Now(), level, msg, pc[0])
	r.AddAttrs(slog.String("session", id), slog.String("remote", remote), slog.String("conn", connID))
	if token != 0 {
		r.AddAttrs(slog.Uint64("mux_token", token))
	}
	r.AddAttrs(attrs...)
	l.Handler().Handle(ctx, r) //nolint:errcheck // a logger's failure is not the session's
}

// noteChars folds one report's observed workload characteristics into the
// session's drift detector. A session without a detector (detection off, or
// no characteristics registered) ignores them.
func (sess *session) noteChars(chars []float64) {
	if sess.detector == nil || len(chars) == 0 {
		return
	}
	dist, fired := sess.detector.Observe(chars)
	sess.state.setDriftDistance(dist)
	if fired {
		sess.drifted = true
		st := sess.detector.Status()
		sess.Emit(search.Event{
			Time: time.Now(), Type: search.EventDrift,
			Op: "detect", Iter: st.Drifts, Dist: dist,
			Note: "live workload left the matched centroid",
		})
	}
}

// acks reports whether this framing acknowledges quits, and lockstep
// reports. v3 does not: as in the pipelined v2 exchange, the next config is
// the flow control, which lets clients coalesce report+fetch into one write.
func (sess *session) acks() bool { return sess.proto < 3 }

// recv reads the session's next wire message: from its connection, or from
// its inbox on a mux connection.
func (sess *session) recv() (message, error) {
	if sess.in == nil {
		return sess.tr.recv()
	}
	it, ok := <-sess.in
	switch {
	case !ok:
		return message{}, sess.termErr
	case it.err != nil:
		return message{}, it.err
	}
	return it.m, nil
}

// errNoRegister ends a connection that closed before registering.
var errNoRegister = errors.New("server: client closed before registering")

// openSession starts one session's bookkeeping: an ID, a state twin in the
// registry, and the started/active counts that endSession settles. Plain
// and mux sessions alike open here.
func (s *Server) openSession(remote, connID string) *session {
	id := obs.NewID()
	m := s.m()
	m.SessionsStarted.Inc()
	m.SessionsActive.Inc()
	sess := &session{
		srv:    s,
		id:     id,
		remote: remote,
		connID: connID,
		end:    SessionEnd{ID: id},
		budget: s.failureBudget(),
		state:  s.trackState(id, remote, connID),
	}
	sess.logAttrs(slog.LevelDebug, "session started")
	return sess
}

// endSession is the one end-of-session tail: it settles the metrics, logs
// the outcome, retires the state twin and reports through OnSessionEnd. The
// kernel has already returned or unwound (an abnormal end deposited the
// partial trace on the way, so prior-run data is never lost, §4.2). It
// returns err.
func (s *Server) endSession(sess *session, err error) error {
	end := &sess.end
	end.Warm, end.Deposited, end.Err = sess.warm(), sess.deposited, err
	m := s.m()
	if end.Completed {
		m.SessionsCompleted.Inc()
	}
	if end.Deposited {
		m.Deposits.Inc()
	}
	outcome := [...]slog.Attr{
		slog.String("app", end.App), slog.Bool("warm", end.Warm), slog.Bool("completed", end.Completed),
		slog.Bool("deposited", end.Deposited), slog.Int("faults", end.Faults), slog.Any("err", err),
	}
	if err != nil {
		m.SessionFailures.Inc()
		sess.logAttrs(slog.LevelWarn, "session failed", outcome[:]...)
	} else {
		sess.logAttrs(slog.LevelInfo, "session ended", outcome[:len(outcome)-1]...)
	}
	s.finishState(sess.state, *end)
	if s.OnSessionEnd != nil {
		s.OnSessionEnd(*end)
	}
	m.SessionsActive.Dec()
	return err
}

// handle serves one connection: negotiate the framing, read the
// registration, then run the one session it carries — or, on a v4-mux
// negotiation, hand the connection to serveMux, whose first session is the
// one opened here.
func (s *Server) handle(conn net.Conn) error {
	token, ok := s.conns.Track(conn)
	if !ok {
		conn.Close()
		return errors.New("server: shutting down")
	}
	release := func() {
		conn.Close()
		s.conns.Untrack(token)
	}
	// The connection token names the transport in session snapshots, so the
	// control plane can group the sessions of one mux connection.
	remote := conn.RemoteAddr().String()
	connID := "conn-" + strconv.FormatUint(token, 10)
	sess := s.openSession(remote, connID)
	// A plain session ends after its connection is released, so whoever
	// OnSessionEnd wakes finds the connection gone from the table.
	end := func(err error) error {
		release()
		return s.endSession(sess, err)
	}

	// 16 KiB holds any hot-path unit with room to spare (frames and lines
	// are tens of bytes; only register envelopes run longer) and keeps the
	// per-connection footprint small at thousand-session scale.
	br := bufio.NewReaderSize(conn, 16*1024)
	w := bufio.NewWriter(conn)
	beforeRead := func() {
		if s.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
	}
	beforeWrite := func() {
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
	}

	tr, proto, err := negotiate(br, w, beforeRead, beforeWrite)
	if err != nil {
		switch {
		case errors.Is(err, io.EOF):
			err = errNoRegister
		case errors.Is(err, errBadPreamble):
			s.m().ProtocolErrors.Inc()
			// The peer speaks neither framing; answer in JSON, the lingua
			// franca every generation understands, before hanging up.
			(&jsonWire{w: w, beforeWrite: beforeWrite}).send(message{Op: "error", Msg: err.Error()}) //nolint:errcheck
		}
		return end(err)
	}
	sess.tr, sess.proto = tr, proto

	// First message must register. Faults before a session exists are not
	// worth tolerating — there is no state to protect yet.
	reg, err := tr.recv()
	if err != nil {
		var g *garbageError
		switch {
		case errors.As(err, &g):
			err = s.fail(sess, g.Error())
		case errors.Is(err, io.EOF):
			err = errNoRegister
		default:
			err = s.recvEnd(sess, err)
		}
		return end(err)
	}
	switch {
	case reg.Op != "register":
		err = s.fail(sess, "first message must be register")
	case !reg.Mux:
		if err = s.register(sess, reg); err == nil {
			err = s.serve(sess)
		}
	default:
		// The v4-mux negotiation: legal only as a v3 connection's first
		// envelope. From here the connection hosts many sessions, each
		// ending on its own; this one becomes the first.
		bw, isBin := tr.(*binWire)
		switch {
		case !isBin:
			err = s.fail(sess, "mux negotiation requires the v3 binary framing")
		case s.MaxMuxSessions < 0:
			err = s.fail(sess, "server refuses multiplexed connections")
		default:
			defer release()
			return s.serveMux(sess, bw, w, beforeWrite, reg, remote, connID)
		}
	}
	return end(err)
}

// register starts the session's kernel from its registration and records
// the outcome: the one registration path of plain and mux sessions. A
// registration the server cannot accept is answered with a protocol error.
func (s *Server) register(sess *session, reg message) error {
	if err := s.startSession(sess, reg); err != nil {
		return s.fail(sess, err.Error())
	}
	sess.end.App = reg.App
	if sess.warm() {
		s.m().WarmStarts.Inc()
	}
	st := sess.state
	st.mu.Lock()
	st.snap.Proto = sess.proto
	st.snap.FailureBudget = sess.budget
	st.snap.Mux = sess.token != 0
	st.mu.Unlock()
	sess.logAttrs(slog.LevelInfo, "session registered",
		slog.String("app", reg.App), slog.Int("dim", len(sess.names)), slog.Bool("warm", sess.warm()),
		slog.Bool("improved", reg.Improved), slog.Int("max_evals", reg.MaxEvals),
		slog.Int("window", sess.window))
	return nil
}

// oversizedMsg is the classification for a wire unit (JSON line or v3
// frame length claim) over the 1 MiB cap — sent to the client, charged to
// the failure budget, and counted, instead of silently aborting the
// session.
const oversizedMsg = "wire line exceeds the 1 MiB frame cap"

// recvEnd classifies a terminal recv error. A clean EOF stays nil (a
// client vanishing between exchanges is not a protocol error); an
// oversized line or frame claim gets a protocol reply, a failure-budget
// charge and a metric before killing the session; a connection dying
// mid-frame is reported as such.
func (s *Server) recvEnd(sess *session, err error) error {
	switch {
	case err == nil, errors.Is(err, io.EOF):
		return nil
	case errors.Is(err, errFrameTooBig):
		s.m().OversizedLines.Inc()
		if err := s.tolerate(sess, oversizedMsg); err != nil {
			return err
		}
		return s.fail(sess, oversizedMsg)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("server: connection died mid-frame")
	}
	return err
}

// errBadPreamble rejects a connection whose first bytes are neither a JSON
// line nor the v3 magic.
var errBadPreamble = errors.New("server: unrecognized wire preamble (want a JSON line or the v3 magic)")

// negotiate sniffs the connection's first byte to pick the framing: '{'
// (any JSON line) selects the v1/v2 line protocol, the 0x00-led magic
// selects binary v3. Nothing is consumed on the JSON path, so the line
// scanner sees the stream from its first byte.
func negotiate(br *bufio.Reader, w *bufio.Writer, beforeRead, beforeWrite func()) (transport, int, error) {
	if beforeRead != nil {
		beforeRead()
	}
	first, err := br.Peek(1)
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.EOF
		}
		return nil, 0, err
	}
	if first[0] != v3Magic[0] {
		return newJSONWire(br, w, beforeRead, beforeWrite), 2, nil
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, 0, io.EOF
	}
	if magic != v3Magic {
		return nil, 0, errBadPreamble
	}
	return newBinWire(br, w, beforeRead, beforeWrite), 3, nil
}

// failureBudget resolves the server's per-session fault tolerance.
func (s *Server) failureBudget() int {
	switch {
	case s.FailureBudget == 0:
		return 3
	case s.FailureBudget < 0:
		return 0
	}
	return s.FailureBudget
}

// fail rejects the session with a protocol error: count it, tell the
// client, and return the terminal error.
func (s *Server) fail(sess *session, msg string) error {
	s.m().ProtocolErrors.Inc()
	sess.send(message{Op: "error", Msg: msg}) //nolint:errcheck
	return errors.New(msg)
}

// tolerate charges one fault against the session's failure budget. Every
// charge is observable — a counter tick, a warn-level log record and a
// typed budget event on the trace stream. Once the budget is exhausted it
// fails the session and returns the terminal error.
func (s *Server) tolerate(sess *session, what string) error {
	end := &sess.end
	end.Faults++
	sess.state.faults.Store(int64(end.Faults))
	s.m().Faults.Inc()
	if s.Tracer != nil {
		s.Tracer.Emit(search.Event{
			Session: sess.id, Time: time.Now(), Type: search.EventBudget,
			Iter: end.Faults, Note: what,
		})
	}
	if end.Faults > sess.budget {
		return s.fail(sess, fmt.Sprintf("failure budget exhausted (%d faults > %d): %s", end.Faults, sess.budget, what))
	}
	sess.logAttrs(slog.LevelWarn, "tolerated fault", slog.Int("fault", end.Faults), slog.Int("budget", sess.budget), slog.String("what", what))
	return nil
}

// serve answers the registration, runs the session's kernel on this
// goroutine, and sends its final best in answer to a fetch — the one session
// loop every session runs: lockstep v1, pipelined v2, either over v3 frames,
// and each session of a mux connection. The kernel drives the wire: each
// batch it measures goes out through MeasureBatch, which reads the
// session's messages until the batch is resolved.
func (s *Server) serve(sess *session) error {
	reply := message{Op: "registered", Names: sess.names, Warm: sess.warm()}
	if sess.window > 1 {
		// Only v2 sessions see v2 fields: a v1 registration (no window)
		// gets the byte-identical v1 reply.
		reply.Window = sess.window
	}
	if err := sess.send(reply); err != nil {
		return err
	}
	// A session dying with configurations in flight must not leak pipeline
	// depth on the gauge.
	defer func() { s.m().SessionOutstanding.Add(-float64(len(sess.out))) }()
	res, err := sess.tune()
	if res == nil {
		return err
	}
	for sess.credits == 0 {
		if end, err := s.step(sess); end {
			return err
		}
	}
	best := message{Op: "best", Evals: res.Evals, Perf: res.BestPerf}
	if len(res.BestConfig) > 0 {
		best.Values = sess.toWire(res.BestConfig)
	}
	if err := sess.send(best); err != nil {
		return err
	}
	sess.end.Completed = true
	return nil
}

// Measure implements search.Objective as a batch of one.
func (sess *session) Measure(cfg search.Config) float64 {
	ps := []search.Probe{{Config: cfg}}
	sess.MeasureBatch(ps)
	return ps[0].Perf
}

// MeasureBatch implements search.BatchObjective: the session's client
// measures the batch. Configurations go out in input order as fetch credits
// and window room allow, and the session's messages are read until every
// probe is reported. When the wire ends the session first, MeasureBatch
// unwinds the kernel with a sessionEnd panic; the probes already reported
// keep Done set, so the kernel commits them before the session deposits its
// partial trace.
//
// Window 1 is the lockstep v1 exchange, whose JSON bytes are pinned to prior
// releases: configs carry no id and the JSON framing acknowledges reports.
// Full fidelity goes out as 0, so the field stays off the wire and
// single-fidelity exchanges remain byte-identical on every framing.
func (sess *session) MeasureBatch(ps []search.Probe) {
	s, m := sess.srv, sess.srv.m()
	for next := 0; next < len(ps) || len(sess.out) > 0; {
		if next == len(ps) || sess.credits == 0 || len(sess.out) == sess.window {
			if end, err := s.step(sess); end {
				panic(sessionEnd{err})
			}
			continue
		}
		p, id := &ps[next], sess.nextID
		next++
		sess.nextID++
		sess.credits--
		sess.out = append(sess.out, outstanding{id: id, p: p})
		sess.state.outstanding.Store(int64(len(sess.out)))
		m.ConfigsServed.Inc()
		sess.state.measured.Add(1)
		m.SessionOutstanding.Inc()
		m.BatchSize.Observe(float64(len(sess.out)))
		cfg := message{Op: "config", Values: sess.toWire(p.Config)}
		if !search.FullFidelity(p.Fidelity) {
			cfg.Fidelity = p.Fidelity
		}
		if sess.window > 1 {
			cfg.id, cfg.hasID = id, true
		}
		if err := sess.send(cfg); err != nil {
			panic(sessionEnd{err})
		}
	}
}

// step reads and handles one wire message: a fetch adds a credit, a report
// resolves its outstanding configuration by correlation id, garbage is
// charged to the failure budget. end reports that the session is over, with
// err its terminal error (nil for a quit or a clean close).
//
// In lockstep an id-less report resolves the one pending configuration, and
// a fetch while one is pending scores it with the failure penalty.
func (s *Server) step(sess *session) (end bool, err error) {
	msg, err := sess.recv()
	if err != nil {
		var g *garbageError
		if !errors.As(err, &g) {
			return true, s.recvEnd(sess, err)
		}
		// Garbage on the wire: skip the line or frame and charge the
		// budget instead of killing a session that may hold hours of
		// tuning progress.
		err = s.tolerate(sess, g.Error())
		return err != nil, err
	}
	lockstep := sess.window == 1
	switch msg.Op {
	case "fetch":
		if lockstep && len(sess.out) == 1 {
			// The report never arrived (the measurement crashed, or the
			// report line was garbage and got skipped): mark the pending
			// point failed with the worst-case penalty so the simplex
			// moves on, charge one fault, and serve the fetch.
			if err := s.tolerate(sess, "fetch while a report is pending — scoring the lost point as failed"); err != nil {
				return true, err
			}
			s.resolve(sess, 0, sess.penalty)
		}
		sess.credits++
	case "report":
		i := 0
		switch {
		case lockstep:
			if len(sess.out) == 0 {
				return true, s.fail(sess, "report without a pending configuration")
			}
		case !msg.hasID:
			err := s.tolerate(sess, "report without id in a pipelined session")
			return err != nil, err
		default:
			if i = slices.IndexFunc(sess.out, func(o outstanding) bool { return o.id == msg.id }); i < 0 {
				err := s.tolerate(sess, fmt.Sprintf("report for unknown id %d", msg.id))
				return err != nil, err
			}
		}
		perf := msg.Perf
		if search.IsFailure(perf, sess.dir) {
			// A non-finite (or absurd) report marks the point failed:
			// worst-case penalty, one fault charged.
			if err := s.tolerate(sess, fmt.Sprintf("non-finite performance report %v", perf)); err != nil {
				return true, err
			}
			perf = sess.penalty
		} else {
			perf = search.Sanitize(perf, sess.dir)
		}
		s.m().ReportsReceived.Inc()
		sess.noteChars(msg.Characteristics)
		s.resolve(sess, i, perf)
		if lockstep && sess.acks() {
			if err := sess.send(message{Op: "ok"}); err != nil {
				return true, err
			}
		}
	case "quit":
		if sess.acks() {
			sess.send(message{Op: "ok"}) //nolint:errcheck // closing anyway
		}
		return true, nil
	default:
		return true, s.fail(sess, fmt.Sprintf("unknown op %q", msg.Op))
	}
	return false, nil
}

// resolve scores out[i]'s probe with perf and drops it from out.
func (s *Server) resolve(sess *session, i int, perf float64) {
	p := sess.out[i].p
	p.Perf, p.Done = perf, true
	sess.out = append(sess.out[:i], sess.out[i+1:]...)
	sess.state.outstanding.Store(int64(len(sess.out)))
	s.m().SessionOutstanding.Dec()
}

// startSession parses the registration, builds the search space (using the
// Appendix B adapter for restricted specs) and readies the kernel the
// session runs.
func (s *Server) startSession(sess *session, reg message) error {
	spec, err := rsl.Parse(reg.RSL)
	if err != nil {
		return err
	}
	dir := search.Maximize
	switch reg.Direction {
	case "", "max":
	case "min":
		dir = search.Minimize
	default:
		return fmt.Errorf("server: unknown direction %q", reg.Direction)
	}
	maxEvals := reg.MaxEvals
	if maxEvals <= 0 || maxEvals > s.MaxEvalsCap {
		maxEvals = s.MaxEvalsCap
	}

	window := 1
	if reg.Window > 1 {
		window = reg.Window
		if cap := s.maxWindow(); window > cap {
			window = cap
		}
	}

	st := sess.state
	sess.names = spec.Names()
	sess.dir = dir
	sess.penalty = search.FailurePenalty(dir)
	sess.window = window
	sess.out = make([]outstanding, 0, window)

	var space *search.Space
	if spec.Restricted() {
		// Search normalized coordinates; decode before the client sees them.
		adapterSpace, _, err := spec.SearchAdapter(nil, 64)
		if err != nil {
			return err
		}
		space = adapterSpace
		g := float64(adapterSpace.Params[0].Max)
		sess.toWire = func(cfg search.Config) []int {
			u := make([]float64, len(cfg))
			for i, v := range cfg {
				u[i] = float64(v) / g
			}
			dec, err := spec.Decode(u)
			if err != nil {
				panic(fmt.Sprintf("server: decode failed: %v", err))
			}
			return dec
		}
	} else {
		space, err = spec.Static()
		if err != nil {
			return err
		}
		sess.toWire = func(cfg search.Config) []int { return cfg }
	}

	var init search.InitStrategy = search.ExtremeInit{}
	if reg.Improved {
		init = search.DistributedInit{}
	}
	// Warm-start from the closest prior session of the same application and
	// specification, when the client told us what workload it is serving.
	sess.workload = workload{key: specKey(reg.App, spec), chars: reg.Characteristics}
	if len(reg.Characteristics) > 0 {
		exp, ref := sess.match(reg.Characteristics)
		if exp != nil {
			// A stored configuration seeds the session as it is, when it
			// still lies on the space's grid.
			fits := func(cfg search.Config) (search.Config, bool) { return cfg, space.Contains(cfg) }
			if sess.prior = exp.Seeds(space, fits, space.Dim()+1); sess.warm() {
				init = search.SeededInit{Seeds: space.ContinuousAll(sess.prior), Fallback: init}
				sess.priorBest = &exp.Best(1)[0].Perf
			}
		}
		if s.DriftDetect {
			sess.detector = drift.New(ref, s.DriftOptions)
		}
	}

	// The session's state twin mirrors registration outcome and, through
	// the tracer fan-out below, every kernel event — the control plane's
	// read path.
	st.registered(reg.App, dir, space.Dim(), window, sess.warm(), sess.toWire)

	// The session is the kernel's objective: its client measures every
	// batch over the wire. Holding the evaluator here (instead of inside
	// NelderMead) lets a wire end read the partial trace after the kernel
	// has unwound. The state twin rides the same trace stream as the
	// configured sink, so the control plane sees exactly what the JSONL
	// trace records.
	ev := search.NewEvaluator(space, sess)
	ev.MaxEvals = maxEvals
	ev.Tracer = sess
	// The measure-once layer: exact hits (this session, peers, prior runs)
	// skip the client round-trip, and the client's measurements are put
	// back into it; the optional estimation gate answers well-supported
	// probes from the §4.3 plane fit. The layer keys by kernel-space configurations — the same
	// coordinates experiences are stored in — so warm fills and live
	// probes meet in one namespace.
	if sess.layer = s.evalLayer(sess.key, space); sess.layer != nil {
		ev.External = sess.layer
	}

	sess.tune = func() (res *search.Result, err error) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			end, ok := rec.(sessionEnd)
			if !ok {
				res, err = nil, s.fail(sess, fmt.Sprintf("server: kernel panic: %v", rec))
				return
			}
			// The wire ended the session mid-kernel: deposit whatever was
			// measured so the experience survives for future sessions
			// (§4.2) — and say so: a silently dropped (or silently kept)
			// partial trace is invisible to operators otherwise. Segments
			// before a drift boundary were already deposited under their
			// own phase's vector.
			tr := ev.Trace()
			if sess.deposited = sess.deposit(tr); sess.deposited {
				s.m().PartialDeposits.Inc()
			}
			sess.logAttrs(slog.LevelWarn, "abnormal disconnect: partial trace",
				slog.Int("trace_len", len(tr)), slog.Bool("deposited", sess.deposited), slog.String("app", reg.App))
			res, err = nil, end.err
		}()
		nmOpts := search.NelderMeadOptions{
			Init:      init,
			Direction: dir,
			MaxEvals:  maxEvals,
			// A pipelined session turns the window into kernel-side
			// concurrency: the initial simplex, shrink steps and the
			// speculative candidate rounds send up to window points at
			// once. window 1 is the sequential lockstep kernel,
			// unchanged.
			Parallel:  sess.window,
			PriorBest: sess.priorBest,
			Tracer:    sess,
		}
		if s.SearchKernel == KernelHyperband {
			// Multi-fidelity triage over reduced-fidelity client
			// measurements, then the very same simplex options as the
			// full-fidelity polish. The warm simplex's seeds double as
			// the sampling prior; a cold namespace degrades to plain
			// Hyperband over uniform candidates.
			res, err = mfsearch.Run(space, ev, mfsearch.NewPrior(space, sess.prior), mfsearch.Options{
				Direction: dir,
				Seed:      kernelSeed(sess.key, reg.Characteristics),
				Polish:    nmOpts,
				Tracer:    sess,
			})
		} else {
			res, err = search.NelderMeadWithEvaluator(space, ev, nmOpts)
		}
		// The convergence decision: a pending workload drift or an
		// operator's re-tune request (control plane) funds one more
		// reduced-scale simplex around the incumbent best, at half the
		// previous scale each time, while budget remains.
		for scale := 0.5; err == nil && st.takeRetune(sess.drifted, res.Converged && len(res.BestConfig) > 0); scale /= 2 {
			if sess.drifted {
				sess.drifted = false
				// Warm in-session re-tune at a drift boundary. First close
				// out the finished phase: its measurements become a prior-run
				// experience under the workload identity they were measured
				// on, so future sessions of that mix warm-start from them.
				if sess.deposit(ev.Trace()) {
					st.notePhaseDeposit()
					s.m().Deposits.Inc()
				}
				// Exact memo entries are real measurements of real
				// configurations and stay valid (the objective is what
				// changed, and the memo is keyed per-configuration truth the
				// client re-reports anyway); the gate's plane fits are
				// interpolations of pre-drift truth and must go. The gate is
				// shared namespace-wide, so this flush acts for every peer
				// session of the key — DriftDetect documents the assumption
				// that they all observe the same live application.
				if sess.layer != nil && sess.layer.Gate != nil {
					sess.layer.Gate.Flush()
				}
				// Re-match the classifier against the live vector, which the
				// new phase deposits under: it may be one the server has seen
				// before. Either way the detector rebases — on the matched
				// centroid, or on the live vector itself — and re-arms for
				// the next episode.
				sess.chars = sess.detector.Live()
				exp, ref := sess.match(sess.chars)
				note := "no prior experience matched; tracking the live vector"
				if exp != nil {
					note = "re-matched a prior experience"
				}
				sess.detector.Rebase(ref)
				ds := sess.detector.Status()
				sess.Emit(search.Event{
					Time: time.Now(), Type: search.EventDrift,
					Op: "rematch", Iter: ds.Drifts, Dist: ds.Dist, Note: note,
				})
				sess.logAttrs(slog.LevelInfo, "workload drift: warm in-session re-tune",
					slog.String("app", reg.App), slog.Int("drift", ds.Drifts), slog.Float64("dist", ds.Dist), slog.String("rematch", note))
			}
			sess.Emit(search.Event{Time: time.Now(), Type: search.EventPhase, Op: "retune", Perf: res.BestPerf})
			retuneOpts := nmOpts
			retuneOpts.Init = search.ScaledInit{Center: space.Continuous(res.BestConfig), Frac: scale}
			res, err = search.NelderMeadWithEvaluator(space, ev, retuneOpts)
		}
		if err != nil {
			return nil, s.fail(sess, err.Error())
		}
		// Deposit the session's tuning experience for future sessions:
		// after a drift only the tail, under the last phase's live vector;
		// earlier phases were deposited at their boundaries.
		sess.deposited = sess.deposit(res.Trace)
		return res, nil
	}
	return nil
}

// ListenAndServe is a convenience for main functions: listen and block until
// the server is shut down. When Logger is not configured, it installs the
// obs default (structured text on stderr) — a daemon should never run
// blind.
func (s *Server) ListenAndServe(addr string) error {
	if s.Logger == nil {
		s.Logger = obs.Default() // before Listen: handlers read it unlocked
	}
	a, err := s.Listen(addr)
	if err != nil {
		return err
	}
	s.logger().Info("harmony server listening", "addr", a.String())
	s.wg.Wait()
	return nil
}
