package webservice

import (
	"fmt"
	"math"

	"harmony/internal/search"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
)

// Parameter indices into the tuning space, in the order of the paper's
// Figure 8.
const (
	PAJPAcceptCount = iota
	PAJPMaxProcessors
	PHTTPBufferSize
	PHTTPAcceptCount
	PMySQLMaxConnections
	PMySQLDelayedQueue
	PMySQLNetBufferLength
	PProxyMaxObjectMem
	PProxyMinObject
	PProxyCacheMem
	NumParams
)

// Space returns the ten-parameter tuning space of the cluster-based web
// service system, with the names the paper's Figure 8 uses.
func Space() *search.Space {
	return search.MustSpace(
		search.Param{Name: "AJPAcceptCount", Min: 8, Max: 120, Step: 8, Default: 24},
		search.Param{Name: "AJPMaxProcessors", Min: 4, Max: 60, Step: 4, Default: 16},
		search.Param{Name: "HTTPBufferSize", Min: 2, Max: 30, Step: 2, Default: 8},
		search.Param{Name: "HTTPAcceptCount", Min: 8, Max: 120, Step: 8, Default: 32},
		search.Param{Name: "MySQLMaxConnections", Min: 4, Max: 60, Step: 4, Default: 24},
		search.Param{Name: "MySQLDelayedQueue", Min: 0, Max: 56, Step: 4, Default: 12},
		search.Param{Name: "MySQLNetBufferLength", Min: 1, Max: 15, Step: 1, Default: 4},
		search.Param{Name: "PROXYMaxObjectMem", Min: 8, Max: 120, Step: 8, Default: 32},
		search.Param{Name: "PROXYMinObject", Min: 0, Max: 14, Step: 1, Default: 0},
		search.Param{Name: "PROXYCacheMem", Min: 16, Max: 240, Step: 16, Default: 64},
	)
}

// Options configures a simulation run.
type Options struct {
	// Browsers is the number of emulated browsers (default 130).
	Browsers int
	// Duration is the simulated horizon in seconds (default 120).
	Duration float64
	// Warmup excludes the ramp-up phase from the WIPS window (default 10).
	Warmup float64
	// ThinkMean is the emulated browser think time mean in seconds
	// (default 1.0; scaled down from TPC-W's 7 s so short simulations
	// saturate the tiers the way the paper's cluster did).
	ThinkMean float64
	// Seed drives the stochastic request stream.
	Seed uint64
	// Fidelity, when in (0, 1), shortens the post-warmup measurement
	// window to that fraction of the full horizon and overlays a
	// deterministic per-(seed, config, fidelity) noise term on WIPS —
	// cheaper and noisier, exactly like a real short benchmark run. 0 and
	// ≥1 mean full fidelity; the simulation is then bit-identical to the
	// pre-multi-fidelity one.
	Fidelity float64
}

func (o *Options) fill() {
	if o.Browsers == 0 {
		o.Browsers = 130
	}
	if o.Duration == 0 {
		o.Duration = 120
	}
	if o.Warmup == 0 {
		o.Warmup = 10
	}
	if o.ThinkMean == 0 {
		o.ThinkMean = 1.0
	}
}

// Result summarizes one simulation run.
type Result struct {
	WIPS float64 // completed web interactions per second (post-warmup)
	// WIPSb and WIPSo are TPC-W's secondary metrics: the completion rates
	// of Browse-class and Order-class interactions respectively.
	WIPSb       float64
	WIPSo       float64
	Completed   int
	Dropped     int
	AvgResponse float64 // mean response time of completed interactions (s)
	ProxyUtil   float64
	AppUtil     float64
	DBUtil      float64
	CacheHits   int
}

// request is a browser's in-flight web interaction. A browser issues,
// waits for the response or a drop timeout, thinks, and issues again, so
// it never has more than one: the simulation keeps one slot per browser
// and issue overwrites it.
type request struct {
	inter    tpcw.Interaction
	issuedAt float64
	stage    int // station serving it: -1 proxy (cache hit), 0 proxy, 1 app, 2 db
}

// config is the decoded parameter vector.
type config struct {
	ajpAccept  int
	ajpWorkers int
	httpBufKB  int
	httpAccept int
	dbConns    int
	delayedQ   int
	netBufKB   int
	maxObjKB   int
	minObjKB   int
	cacheMemMB int
}

func decode(cfg search.Config) (config, error) {
	if len(cfg) != NumParams {
		return config{}, fmt.Errorf("webservice: config has %d values, want %d", len(cfg), NumParams)
	}
	return config{
		ajpAccept:  cfg[PAJPAcceptCount],
		ajpWorkers: cfg[PAJPMaxProcessors],
		httpBufKB:  cfg[PHTTPBufferSize],
		httpAccept: cfg[PHTTPAcceptCount],
		dbConns:    cfg[PMySQLMaxConnections],
		delayedQ:   cfg[PMySQLDelayedQueue],
		netBufKB:   cfg[PMySQLNetBufferLength],
		maxObjKB:   cfg[PProxyMaxObjectMem],
		minObjKB:   cfg[PProxyMinObject],
		cacheMemMB: cfg[PProxyCacheMem],
	}, nil
}

// Calibration constants for the queueing model. They are chosen so the
// default configuration lands in the paper's 50–90 WIPS band with the
// application tier as the primary bottleneck, the database heavily used
// under the ordering mix, and the proxy cache the big lever under shopping.
const (
	proxyServers     = 2
	proxyHandleS     = 0.006  // base proxy work per request
	proxyHitPerKBS   = 0.0004 // serving a cached object, per KB
	proxyDiskHitS    = 0.035  // extra cost when the object lives on disk
	proxyRAMCapMB    = 200.0  // beyond this the proxy starts swapping
	cacheMemTauMB    = 90.0   // cache capacity saturation constant
	appBaseS         = 0.040
	appPerCPUS       = 0.200
	appFlushPerKBS   = 0.006 // per buffer flush (resultKB / bufKB flushes)
	appPerBufKBS     = 0.0005
	appWorkerKneeN   = 28.0 // thrashing knee in worker count
	appThrashScale   = 12.0
	dbBaseS          = 0.030
	dbPerReadS       = 0.100
	dbXferPerKBS     = 0.012 // per netBuf-sized round trip
	dbPerBufKBS      = 0.0006
	dbSyncWriteS     = 0.300 // per unit of DBWrite, synchronous
	dbAsyncWriteS    = 0.060 // per unit of DBWrite, via the delayed queue
	dbDrainHoldS     = 0.35  // slot hold time per unit of DBWrite
	dbConnKneeN      = 12.0  // contention knee in busy connections
	dbConnScale      = 14.0
	dbRAMCapMB       = 256.0
	dbBaseMemMB      = 64.0
	dbMemPerConnBuf  = 0.4 // MB per connection per netBuf KB
	dbMemPerDelayed  = 1.2 // MB per delayed-queue slot
	swapPenaltyPerMB = 0.016
	dropTimeoutS     = 1.5 // browser wait before retrying a dropped request
)

// Cluster is the simulated three-tier system.
type Cluster struct {
	opts Options
}

// NewCluster returns a simulator with the given options.
func NewCluster(opts Options) *Cluster {
	opts.fill()
	return &Cluster{opts: opts}
}

// Run simulates the cluster under cfg serving the mix and returns the
// measured performance. It is deterministic in (cfg, mix, opts.Seed,
// opts.Fidelity).
func (c *Cluster) Run(cfg search.Config, mix tpcw.Mix) (Result, error) {
	pc, err := decode(cfg)
	if err != nil {
		return Result{}, err
	}
	opts := c.opts
	reduced := opts.Fidelity > 0 && opts.Fidelity < 1
	if reduced {
		// Shorter sampled-request horizon: the warmup still runs in full
		// (the tiers must fill), only the measurement window shrinks.
		opts.Duration = opts.Warmup + (opts.Duration-opts.Warmup)*opts.Fidelity
	}
	sim := &simulation{
		opts: opts,
		cfg:  pc,
		mix:  mix,
		rng:  stats.NewRNG(opts.Seed ^ 0x9e3779b97f4a7c15),
	}
	res := sim.run()
	if reduced {
		// Per-rung noise model: a short run's throughput estimate wobbles.
		// The multiplier is deterministic in (seed, config, fidelity) so
		// repeated measurements coalesce, and its amplitude grows as the
		// window shrinks.
		m := fidelityNoise(opts.Seed, cfg, opts.Fidelity)
		res.WIPS *= m
		res.WIPSb *= m
		res.WIPSo *= m
	}
	return res, nil
}

// fidelityNoiseAmp is the relative WIPS noise amplitude as fidelity → 0.
const fidelityNoiseAmp = 0.12

// fidelityNoise returns the deterministic multiplicative noise term for a
// reduced-fidelity run: uniform in 1 ± fidelityNoiseAmp·(1−f), hashed from
// the seed, the configuration content and the fidelity itself so distinct
// rungs of the same configuration observe distinct wobbles.
func fidelityNoise(seed uint64, cfg search.Config, f float64) float64 {
	h := seed ^ 0xd1b54a32d192ed03
	for _, v := range cfg {
		h ^= uint64(int64(v))
		h *= 1099511628211
	}
	h ^= math.Float64bits(f)
	h *= 1099511628211
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	u := float64(h>>11) / (1 << 53) // uniform [0, 1)
	return 1 + fidelityNoiseAmp*(1-f)*(2*u-1)
}

// Objective adapts the cluster to the search kernel: every measurement runs
// one simulation. When vary is true each measurement gets a fresh seed, so
// repeated measurements of the same configuration differ run-to-run the way
// the real cluster's do; when false the seed is fixed (useful for
// deterministic tests and exhaustive sweeps).
func (c *Cluster) Objective(mix tpcw.Mix, vary bool) search.Objective {
	seq := uint64(0)
	return search.ObjectiveFunc(func(cfg search.Config) float64 {
		seed := c.opts.Seed
		if vary {
			seq++
			seed = c.opts.Seed*1315423911 + seq
		}
		return c.measure(cfg, mix, seed, 1, 1)
	})
}

// ObjectiveStable adapts the cluster to the parallel search paths: like
// Objective(mix, true) each configuration sees measurement variation, but
// the variation is derived from the configuration's own content (an FNV-1a
// hash of its values) rather than from a shared call counter. Measurements
// are therefore independent of call order and concurrency — the same
// configuration always runs the same simulated minute, no matter which
// EvalBatch worker or speculative round asks — which makes the objective
// both safe for concurrent use and deterministic under search.EvalBatch /
// Evaluator.Speculate. The sequential and parallel kernels see identical
// values for identical probes. It is ObjectiveStableAt at full fidelity.
func (c *Cluster) ObjectiveStable(mix tpcw.Mix) search.Objective {
	return search.ObjectiveFunc(c.ObjectiveStableAt(mix).Measure)
}

// ObjectiveStableAt is ObjectiveStable with a fidelity dial: full-fidelity
// measurements are ObjectiveStable's (so exact-mode trajectories are
// unchanged when multi-fidelity is off), while fidelity f ∈ (0, 1) runs
// the deterministically shorter, noisier simulation (see
// Options.Fidelity). Safe for concurrent use and independent of call
// order, like ObjectiveStable.
func (c *Cluster) ObjectiveStableAt(mix tpcw.Mix) search.FidelityObjective {
	return search.FidelityObjectiveFunc(func(cfg search.Config, fidelity float64) float64 {
		return c.measure(cfg, mix, c.stableSeed(cfg), fidelity, 1)
	})
}

// measure is the objective adapters' one measurement path: it runs cfg
// serving mix on a throwaway cluster with c's options, except that the
// seed is replaced, a reduced fidelity replaces the cluster's own, and the
// browser population is scaled by load. It returns the run's WIPS.
func (c *Cluster) measure(cfg search.Config, mix tpcw.Mix, seed uint64, fidelity, load float64) float64 {
	opts := c.opts
	opts.Seed = seed
	if !search.FullFidelity(fidelity) {
		opts.Fidelity = fidelity
	}
	if load != 1 {
		opts.Browsers = int(float64(opts.Browsers)*load + 0.5)
	}
	res, err := NewCluster(opts).Run(cfg, mix)
	if err != nil {
		panic(err) // the space is fixed; a bad config is a bug
	}
	return res.WIPS
}

// stableSeed is ObjectiveStable's per-configuration measurement seed.
func (c *Cluster) stableSeed(cfg search.Config) uint64 {
	return c.opts.Seed*1315423911 + contentHash(cfg)
}

// contentHash is the FNV-1a hash of the configuration values that derives
// ObjectiveStable's per-configuration measurement seed.
func contentHash(cfg search.Config) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, v := range cfg {
		h ^= uint64(int64(v))
		h *= fnvPrime
	}
	return h
}

// simulation carries the state of one run.
type simulation struct {
	opts    Options
	cfg     config
	mix     tpcw.Mix
	sampler tpcw.Sampler
	rng     *stats.RNG

	sched scheduler
	reqs  []request // one slot per browser, indexed by browser
	proxy station
	app   station
	db    station

	delayedBusy int // occupied delayed-write slots

	completed  int
	completedO int // order-class completions
	dropped    int
	cacheHits  int
	respSum    float64
	swapProxy  float64 // cached penalty multipliers
	thrashApp  float64
	swapDB     float64
	capFactor  float64 // share of cacheable objects the proxy cache holds
}

func (s *simulation) run() Result {
	s.sampler = s.mix.Sampler() // hoist the per-draw normalization
	n := max(s.opts.Browsers, 0)
	s.reqs = make([]request, n)
	// At most one issue, timeout or service-done event per browser is
	// pending, plus one drain per occupied delayed-write slot.
	s.sched.reserve(n + max(s.cfg.delayedQ, 0))
	s.proxy = newStation(proxyServers, s.cfg.httpAccept, n)
	s.app = newStation(s.cfg.ajpWorkers, s.cfg.ajpAccept, n)
	s.db = newStation(s.cfg.dbConns, 4*s.cfg.dbConns+16, n)

	// Static penalty multipliers derived from the configuration.
	s.capFactor = 1 - math.Exp(-float64(s.cfg.cacheMemMB)/cacheMemTauMB)
	s.swapProxy = 1 + swapOver(float64(s.cfg.cacheMemMB), proxyRAMCapMB)
	w := float64(s.cfg.ajpWorkers)
	over := (w - appWorkerKneeN) / appThrashScale
	if over < 0 {
		over = 0
	}
	s.thrashApp = 1 + over*over
	dbMem := dbBaseMemMB +
		float64(s.cfg.dbConns)*float64(s.cfg.netBufKB)*dbMemPerConnBuf +
		float64(s.cfg.delayedQ)*dbMemPerDelayed
	s.swapDB = 1 + swapOver(dbMem, dbRAMCapMB)

	// Stagger the browsers' first requests across one think period.
	for b := 0; b < s.opts.Browsers; b++ {
		s.sched.schedule(s.rng.Uniform(0, s.opts.ThinkMean), evIssue, b)
	}

	for {
		ev, ok := s.sched.next()
		if !ok || s.sched.now > s.opts.Duration {
			break
		}
		b := int(ev.browser)
		switch ev.kind {
		case evIssue:
			s.issue(b)
		case evDone:
			s.finishService(b)
		case evDrain:
			s.delayedBusy--
		case evTimeout:
			s.thinkNext(b)
		}
	}

	window := s.opts.Duration - s.opts.Warmup
	res := Result{
		Completed: s.completed,
		Dropped:   s.dropped,
		CacheHits: s.cacheHits,
		ProxyUtil: s.proxy.utilization(s.opts.Duration),
		AppUtil:   s.app.utilization(s.opts.Duration),
		DBUtil:    s.db.utilization(s.opts.Duration),
	}
	if window > 0 {
		res.WIPS = float64(s.completed) / window
		res.WIPSo = float64(s.completedO) / window
		res.WIPSb = float64(s.completed-s.completedO) / window
	}
	if s.completed > 0 {
		res.AvgResponse = s.respSum / float64(s.completed)
	}
	return res
}

func swapOver(used, cap float64) float64 {
	if used <= cap {
		return 0
	}
	return (used - cap) * swapPenaltyPerMB
}

// issue has browser b start a fresh web interaction at the proxy.
func (s *simulation) issue(b int) {
	s.reqs[b] = request{inter: s.sampler.Sample(s.rng), issuedAt: s.sched.now}
	admitted, started := s.proxy.offer(s.sched.now, b)
	if !admitted {
		s.drop(b)
		return
	}
	if started {
		s.startProxy(b)
	}
}

// startProxy dispatches proxy service for browser b's request: either a
// cache hit (respond directly) or a miss (forward to the app tier
// afterwards).
func (s *simulation) startProxy(b int) {
	r := &s.reqs[b]
	p := tpcw.ProfileOf(r.inter)
	hit := false
	if p.Cacheable > 0 && p.ResultKB >= float64(s.cfg.minObjKB) {
		hit = s.rng.Float64() < p.Cacheable*s.capFactor
	}
	st := proxyHandleS * s.swapProxy
	r.stage = 0
	if hit {
		s.cacheHits++
		st += p.ResultKB * proxyHitPerKBS * s.swapProxy
		if p.ResultKB > float64(s.cfg.maxObjKB) {
			// Object too large for the memory cache: served from disk.
			st += proxyDiskHitS
		}
		r.stage = -1 // respond directly after proxy service
	}
	s.sched.schedule(st, evDone, b)
}

// finishService routes browser b's request onward when the station
// serving it, named by the request's stage, completes it.
func (s *simulation) finishService(b int) {
	stage := s.reqs[b].stage
	// Free the server and pull the next queued request into service.
	switch stage {
	case -1, 0:
		if next, ok := s.proxy.release(s.sched.now); ok {
			s.startProxy(next)
		}
	case 1:
		if next, ok := s.app.release(s.sched.now); ok {
			s.startApp(next)
		}
	case 2:
		if next, ok := s.db.release(s.sched.now); ok {
			s.startDB(next)
		}
	}
	switch stage {
	case -1:
		s.respond(b) // cache hit
	case 0:
		s.forward(b, &s.app)
	case 1:
		p := tpcw.ProfileOf(s.reqs[b].inter)
		if !p.StaticOnly && (p.DBRead > 0 || p.DBWrite > 0) {
			s.forward(b, &s.db)
		} else {
			s.respond(b)
		}
	case 2:
		s.respond(b)
	}
}

// forward hands browser b's request to the next tier, dropping it when
// that tier's accept queue is full.
func (s *simulation) forward(b int, to *station) {
	admitted, started := to.offer(s.sched.now, b)
	if !admitted {
		s.drop(b)
		return
	}
	if !started {
		return
	}
	if to == &s.app {
		s.startApp(b)
	} else {
		s.startDB(b)
	}
}

// startApp dispatches application-server service.
func (s *simulation) startApp(b int) {
	p := tpcw.ProfileOf(s.reqs[b].inter)
	st := (appBaseS + appPerCPUS*p.CPU) * s.thrashApp
	// Response streaming: resultKB/bufKB buffer flushes plus buffer cost.
	buf := float64(s.cfg.httpBufKB)
	st += p.ResultKB / buf * appFlushPerKBS
	st += buf * appPerBufKBS
	s.reqs[b].stage = 1
	s.sched.schedule(st, evDone, b)
}

// startDB dispatches database service. Service time depends on the number
// of busy connections at dispatch (lock and scheduler contention).
func (s *simulation) startDB(b int) {
	p := tpcw.ProfileOf(s.reqs[b].inter)
	busy := float64(s.db.busy)
	over := (busy - dbConnKneeN) / dbConnScale
	if over < 0 {
		over = 0
	}
	mult := (1 + over*over) * s.swapDB

	st := (dbBaseS + dbPerReadS*p.DBRead) * mult
	// Result transfer in netBuf-sized round trips.
	buf := float64(s.cfg.netBufKB)
	st += p.ResultKB / buf * dbXferPerKBS
	st += buf * dbPerBufKBS

	if p.DBWrite > 0 {
		if s.delayedBusy < s.cfg.delayedQ {
			// Asynchronous write through the delayed queue.
			s.delayedBusy++
			st += dbAsyncWriteS * p.DBWrite * mult
			s.sched.schedule(st+dbDrainHoldS*p.DBWrite, evDrain, -1)
		} else {
			st += dbSyncWriteS * p.DBWrite * mult
		}
	}
	s.reqs[b].stage = 2
	s.sched.schedule(st, evDone, b)
}

// respond completes browser b's interaction and schedules its next one.
func (s *simulation) respond(b int) {
	if s.sched.now >= s.opts.Warmup {
		s.completed++
		if s.reqs[b].inter.IsOrder() {
			s.completedO++
		}
		s.respSum += s.sched.now - s.reqs[b].issuedAt
	}
	s.thinkNext(b)
}

// drop rejects browser b's interaction; the browser waits out a timeout
// first.
func (s *simulation) drop(b int) {
	if s.sched.now >= s.opts.Warmup {
		s.dropped++
	}
	s.sched.schedule(dropTimeoutS, evTimeout, b)
}

// thinkNext schedules browser b's next interaction after a think pause.
func (s *simulation) thinkNext(b int) {
	s.sched.schedule(s.rng.Exp(s.opts.ThinkMean), evIssue, b)
}
