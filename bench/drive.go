package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/search"
	"harmony/internal/server"
)

// clientEval is one measurement a client made. start and end are offsets
// from the start of the timed phase.
type clientEval struct {
	cfg        search.Config
	fid, perf  float64
	start, end time.Duration
}

// outcome is what one completed session leaves for the report. Outcomes are
// indexed by session so that every aggregate sums in one fixed order.
type outcome struct {
	done     bool
	best     search.Config
	bestPerf float64
	// reported: the best equals a full-fidelity perf a client reported for
	// that configuration.
	reported bool
	paper    paperStats
}

// paperStats are the paper's per-session metrics of the client-measured
// trace; see sessionPaper. measured is false when the client measured
// nothing at full fidelity, so there is no final best to relate to.
type paperStats struct {
	measureS, to98S, evalsTo98, initial float64
	measured                            bool
}

// worker is one client goroutine's samples; the report merges them.
type worker struct {
	lat                           []time.Duration // exchange round trips
	exchanges                     int
	dialErrs, sessErrs, protoErrs int
	tr                            []clientEval // the current session's measurements
	ex                            []interval   // the current session's exchanges (traced)
	tl                            *traceLog    // traced runs only
}

type interval struct{ start, end time.Duration }

// runner drives one round's timed phase: a fixed list of sessions against a
// booted daemon, at most w.inFlight at a time.
type runner struct {
	w       workload
	sz      sizes
	d       *daemon
	in      []sessionInput // this round's sessions
	out     []outcome      // and their outcomes
	base    int            // the round's first session index
	apps    []webApp
	ledgers []*ledger
	rsl     string
	next    atomic.Int64
	t0      time.Time
	// sample is the span sampling stride of a traced run: every sample-th
	// session's spans are kept.
	sample int
	spanID atomic.Int64
}

// run drives every session and returns the workers' samples. Quadratic
// sessions go to whichever client is free; each web client is one app and
// runs that app's sessions one after another, so every trajectory is
// deterministic.
func (r *runner) run(traced bool) []*worker {
	workers := make([]*worker, r.sz.InFlight)
	var wg sync.WaitGroup
	r.t0 = time.Now()
	for i := range workers {
		wk := &worker{}
		if traced {
			wk.tl = &traceLog{}
		}
		workers[i] = wk
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r.w.web {
				for s := range r.in {
					if r.in[s].app == i {
						r.session(s, i, wk)
					}
				}
				return
			}
			for {
				s := int(r.next.Add(1) - 1)
				if s >= len(r.in) {
					return
				}
				r.session(s, i, wk)
			}
		}(i)
	}
	wg.Wait()
	return workers
}

// session runs one client session from dial to close.
func (r *runner) session(i, wi int, wk *worker) {
	in := &r.in[i]
	start := time.Now()
	var c *server.Client
	if r.w.mux {
		c = r.d.muxes[wi%len(r.d.muxes)].Session()
	} else {
		var err error
		if c, err = server.Dial(r.d.addr, 5*time.Second); err != nil {
			wk.dialErrs++
			return
		}
	}
	dialed := time.Now()
	opts := server.RegisterOptions{MaxEvals: r.sz.MaxEvals, Improved: true, Proto: r.w.proto, Window: r.w.window}
	if r.w.web {
		opts.App, opts.Characteristics = r.apps[in.app].name, in.chars
	}
	_, err := c.Register(r.rsl, opts)
	registered := time.Now()
	wk.tr, wk.ex = wk.tr[:0], wk.ex[:0]
	var best *server.Best
	if err == nil {
		if r.w.window > 1 {
			best, err = r.pipelined(c, in, wk)
		} else {
			best, err = r.lockstep(c, in, wk)
		}
	}
	closing := time.Now()
	err = errors.Join(err, c.Close())
	end := time.Now()
	switch {
	case errors.Is(err, server.ErrProtocol):
		wk.protoErrs++
		return
	case err != nil:
		wk.sessErrs++
		return
	}
	o := &r.out[i]
	o.done, o.best, o.bestPerf = true, best.Values, best.Perf
	o.paper = sessionPaper(wk.tr)
	if r.w.web {
		o.reported = r.ledgers[in.app].has(best.Values, best.Perf)
	} else {
		o.reported = reportedIn(wk.tr, best.Values, best.Perf)
	}
	if wk.tl != nil {
		r.traceSession(i, wk, [5]time.Time{start, dialed, registered, closing, end})
	}
}

// measureFunc is the session's application. Web measurements at full
// fidelity enter the app's ledger of client-reported truths.
func (r *runner) measureFunc(in *sessionInput) func(search.Config, float64) float64 {
	if !r.w.web {
		return func(cfg search.Config, _ float64) float64 { return quad(cfg, in.cx, in.cy) }
	}
	obj, l := r.apps[in.app].cluster.ObjectiveStableAt(*in.mix), r.ledgers[in.app]
	return func(cfg search.Config, fid float64) float64 {
		perf := obj.MeasureAt(cfg, fid)
		if search.FullFidelity(fid) {
			l.add(cfg, perf)
		}
		return perf
	}
}

// lockstep is the window-1 loop. An exchange sample is a ReportAndFetch
// round trip that brings the next configuration: the time from one
// measurement returning to the next starting, as on a pipelined worker. The
// first fetch and the one that brings the final best (after the session's
// deposit) count only in the session's time.
func (r *runner) lockstep(c *server.Client, in *sessionInput, wk *worker) (*server.Best, error) {
	measure := r.measureFunc(in)
	a := time.Now()
	cfg, fid, done, err := c.FetchAt()
	for first := true; ; first = false {
		b := time.Now()
		if !first && err == nil && !done {
			wk.lat = append(wk.lat, b.Sub(a))
		}
		wk.exchanges++
		if wk.tl != nil {
			wk.ex = append(wk.ex, interval{a.Sub(r.t0), b.Sub(r.t0)})
		}
		if err != nil || done {
			break
		}
		perf := measure(cfg, fid)
		a = time.Now()
		wk.tr = append(wk.tr, clientEval{cfg: cfg, fid: fid, perf: perf, start: b.Sub(r.t0), end: a.Sub(r.t0)})
		cfg, fid, done, err = c.ReportAndFetchAt(perf, fid)
	}
	if err != nil {
		return nil, err
	}
	best, _ := c.BestResult()
	return best, nil
}

// pipelined drives a windowed session through TuneParallelAt. An exchange
// sample is the gap on one worker goroutine between a measurement returning
// and that worker's next measurement starting.
func (r *runner) pipelined(c *server.Client, in *sessionInput, wk *worker) (*server.Best, error) {
	measure := r.measureFunc(in)
	type lastEnd struct {
		gid uint64
		end time.Time
	}
	var (
		mu   sync.Mutex
		last []lastEnd
	)
	tuneStart := time.Now()
	best, err := c.TuneParallelAt(func(cfg search.Config, fid float64) float64 {
		gid := goroutineID()
		start := time.Now()
		perf := measure(cfg, fid)
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		prev, seen := tuneStart, false
		for i := range last {
			if last[i].gid == gid {
				prev, seen, last[i].end = last[i].end, true, end
				break
			}
		}
		if seen {
			wk.lat = append(wk.lat, start.Sub(prev))
		} else {
			last = append(last, lastEnd{gid, end})
		}
		if wk.tl != nil {
			wk.ex = append(wk.ex, interval{prev.Sub(r.t0), start.Sub(r.t0)})
		}
		wk.tr = append(wk.tr, clientEval{cfg: cfg, fid: fid, perf: perf, start: start.Sub(r.t0), end: end.Sub(r.t0)})
		return perf
	}, r.w.window)
	tuneEnd := time.Now()
	wk.exchanges += len(wk.tr) + 1
	if wk.tl != nil {
		tail := tuneStart
		for _, l := range last {
			if l.end.After(tail) {
				tail = l.end
			}
		}
		wk.ex = append(wk.ex, interval{tail.Sub(r.t0), tuneEnd.Sub(r.t0)})
	}
	canonicalOrder(wk.tr)
	return best, err
}

// canonicalOrder puts a pipelined session's measurements into an order that
// depends little on goroutine scheduling: runs of overlapping measurements in
// time order, each run sorted by fidelity and configuration. The kernel
// dispatches a batch's points in whatever order its workers reach the
// message loop, and a batch larger than the window can show a gap, so the
// order — and the convergence iteration taken from it — can still move a
// little between runs of one seed.
func canonicalOrder(tr []clientEval) {
	sort.Slice(tr, func(i, j int) bool { return tr[i].start < tr[j].start })
	for lo := 0; lo < len(tr); {
		hi, end := lo+1, tr[lo].end
		for hi < len(tr) && tr[hi].start <= end {
			if tr[hi].end > end {
				end = tr[hi].end
			}
			hi++
		}
		round := tr[lo:hi]
		sort.Slice(round, func(i, j int) bool {
			if round[i].fid != round[j].fid {
				return round[i].fid < round[j].fid
			}
			return lessConfig(round[i].cfg, round[j].cfg)
		})
		lo = hi
	}
}

func lessConfig(a, b search.Config) bool {
	for k := range a {
		if k >= len(b) || a[k] != b[k] {
			return k < len(b) && a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

// gid is the scratch buffer goroutineID formats the stack header into.
var gid struct {
	sync.Mutex
	buf [64]byte
}

// goroutineID parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). Pipelined exchange gaps are per worker
// goroutine, and TuneParallelAt does not name its workers.
func goroutineID() uint64 {
	gid.Lock()
	defer gid.Unlock()
	n := runtime.Stack(gid.buf[:], false)
	var id uint64
	for _, c := range gid.buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Paper-metric definitions: the convergence tolerance relative to the
// session's final best, and the initial window (Table 2's initial
// oscillation stage).
const (
	convergenceTol = 0.02
	initialWindow  = 15
)

// sessionPaper computes the paper's metrics from the measurements a client
// made, in order: the simulated measurement seconds in total and up to the
// convergence iteration; the convergence iteration itself, the first
// measurement after which the best full-fidelity value so far is within 2%
// of the session's final best; and the mean of the first 15 measurements as
// a share of that final best. Cache hits and estimates never reach the
// client and cost nothing.
func sessionPaper(tr []clientEval) paperStats {
	var p paperStats
	final, have := 0.0, false
	for _, e := range tr {
		p.measureS += simSeconds(e.fid)
		if search.FullFidelity(e.fid) && (!have || e.perf > final) {
			final, have = e.perf, true
		}
	}
	if !have {
		return p
	}
	best := math.Inf(-1)
	for i, e := range tr {
		p.to98S += simSeconds(e.fid)
		if search.FullFidelity(e.fid) && e.perf > best {
			best = e.perf
		}
		if final-best <= convergenceTol*math.Abs(final) {
			p.evalsTo98 = float64(i + 1)
			break
		}
	}
	initial := tr[:min(len(tr), initialWindow)]
	for _, e := range initial {
		p.initial += e.perf
	}
	p.initial /= float64(len(initial)) * final
	p.measured = true
	return p
}

// reportedIn reports whether the session's own measurements include cfg at
// full fidelity with exactly perf.
func reportedIn(tr []clientEval, cfg search.Config, perf float64) bool {
	for _, e := range tr {
		if search.FullFidelity(e.fid) && e.perf == perf && e.cfg.Equal(cfg) {
			return true
		}
	}
	return false
}

// ledger is one web app's set of (configuration, perf) truths that clients
// reported at full fidelity — in prior runs and in this one. The cache, the
// gate's warm fills and the store all serve one app's namespace, so a
// session's best may be any of them, but it must be one of them.
type ledger struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

func newLedger() *ledger { return &ledger{seen: map[string]struct{}{}} }

func ledgerKey(cfg search.Config, perf float64) string {
	return cfg.Key() + "=" + strconv.FormatUint(math.Float64bits(perf), 16)
}

func (l *ledger) clone() *ledger {
	c := newLedger()
	l.mu.Lock()
	for k := range l.seen {
		c.seen[k] = struct{}{}
	}
	l.mu.Unlock()
	return c
}

func (l *ledger) add(cfg search.Config, perf float64) {
	l.mu.Lock()
	l.seen[ledgerKey(cfg, perf)] = struct{}{}
	l.mu.Unlock()
}

func (l *ledger) has(cfg search.Config, perf float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.seen[ledgerKey(cfg, perf)]
	return ok
}
