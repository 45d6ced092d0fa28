package evalcache

import (
	"math"
	"strconv"
	"sync"

	"harmony/internal/estimate"
	"harmony/internal/expdb"
	"harmony/internal/search"
)

// GateOptions tune the §4.3 estimation gate. Zero values select the
// defaults; the gate is deliberately conservative out of the box — a wrong
// estimate steers the simplex, so the gate only answers when the plane fit
// is well-supported.
type GateOptions struct {
	// MaxVertexDist is the largest normalized Euclidean distance any chosen
	// k-NN vertex may sit from the target (default DefaultGateMaxDist).
	// Beyond it the plane would extrapolate, so the gate declines.
	MaxVertexDist float64
	// MaxRelResidual bounds the plane fit's RMS residual at its own
	// vertices, relative to the vertex performance scale (default
	// DefaultGateMaxRelResidual). A large residual means the local surface
	// is not planar.
	MaxRelResidual float64
	// MinRecords is how many distinct observed configurations must exist
	// before the gate attempts any estimate (default 3*(dim+1)).
	MinRecords int
	// K is the number of vertices fitted through (default dim+1, the
	// paper's simplex size).
	K int
	// RefreshEvery is how many new observations accumulate before the
	// spatial index is rebuilt (default DefaultGateRefreshEvery). Staleness
	// only costs answerable estimates, never correctness.
	RefreshEvery int
	// MaxRecords bounds the gate's record set on a long-lived server
	// (default DefaultGateMaxRecords); beyond it the oldest half is
	// dropped.
	MaxRecords int
	// Policy selects the vertex policy (default estimate.NearestInSpace;
	// estimate.LatestInTime suits drifting environments).
	Policy estimate.NeighborPolicy
	// TruthCheckEvery, when positive, re-measures every Nth gate-answered
	// probe per session to calibrate the estimator: the gate's answer is
	// held aside, a real measurement is paid, and |measured - estimated|
	// lands on the harmony_estimate_abs_error histogram. 0 (the default)
	// disables calibration. The field rides GateOptions for plumbing but is
	// consumed by Layer, which owns per-session pacing.
	TruthCheckEvery int
	// AdaptWindow is how many truth checks form one calibration verdict for
	// the adaptive shrink (default DefaultGateAdaptWindow). Each full window
	// either tightens the gate (mean relative error over AdaptErrorBound:
	// halve the distance and residual acceptance, double the record floor)
	// or slowly re-widens it back toward the configured acceptance (mean
	// under half the bound). Calibration only happens when TruthCheckEvery
	// feeds errors in, so adaptation is inert without truth checks.
	AdaptWindow int
	// AdaptErrorBound is the mean relative estimation error (per truth-check
	// window) above which the gate tightens itself (default
	// DefaultGateAdaptErrorBound). Negative disables adaptation.
	AdaptErrorBound float64
}

// Gate defaults.
const (
	DefaultGateMaxDist         = 0.15
	DefaultGateMaxRelResidual  = 0.05
	DefaultGateRefreshEvery    = 8
	DefaultGateMaxRecords      = 4096
	DefaultGateAdaptWindow     = 8
	DefaultGateAdaptErrorBound = 0.10
	// gateShrinkFloor bounds how far adaptation may tighten the distance
	// and residual acceptance below their configured values: a gate that
	// shrank to nothing would never answer again and so never re-calibrate.
	gateShrinkFloor = 8
)

func (o *GateOptions) fill(dim int) {
	if o.MaxVertexDist == 0 {
		o.MaxVertexDist = DefaultGateMaxDist
	}
	if o.MaxRelResidual == 0 {
		o.MaxRelResidual = DefaultGateMaxRelResidual
	}
	if o.K <= 0 {
		o.K = dim + 1
	}
	if o.MinRecords <= 0 {
		o.MinRecords = 3 * (dim + 1)
	}
	if o.RefreshEvery <= 0 {
		o.RefreshEvery = DefaultGateRefreshEvery
	}
	if o.MaxRecords <= 0 {
		o.MaxRecords = DefaultGateMaxRecords
	}
	if o.AdaptWindow <= 0 {
		o.AdaptWindow = DefaultGateAdaptWindow
	}
	if o.AdaptErrorBound == 0 {
		o.AdaptErrorBound = DefaultGateAdaptErrorBound
	}
}

// Gate is the estimation-gated short-circuit: it accumulates measured
// truths and answers probes from the triangulation estimator's plane fit
// (§4.3) when — and only when — the fit's k-NN support is close and tight.
// Safe for concurrent use; typically shared by every session in one
// (app, spec) namespace.
type Gate struct {
	opts    GateOptions
	metrics *Metrics

	mu       sync.Mutex
	est      *estimate.Estimator
	recs     []estimate.Record
	seen     map[string]bool // config keys already recorded (dedup)
	prepared *estimate.Prepared
	prepLen  int // len(recs) when prepared was built
	seq      int

	// Effective acceptance thresholds — start at the configured values and
	// move under adaptive calibration: RecordTruthError tightens them when a
	// truth-check window shows the estimator misleading the search, and
	// re-widens them slowly (never past the configured values) once accuracy
	// returns.
	effMaxDist     float64
	effMaxResidual float64
	effMinRecords  int
	errSum         float64 // relative-error accumulator of the open window
	errN           int     // truth checks in the open window
	errScale       float64 // EWMA of |measured| across truth checks — the robust normalizer
	errScaleN      int     // truth checks folded into errScale (0: unseeded)
}

// NewGate returns a gate over the space. The estimator uses the expdb k-d
// tree for vertex selection, so per-probe cost is O(k + log n) once the
// index is built.
func NewGate(space *search.Space, opts GateOptions, m *Metrics) *Gate {
	opts.fill(space.Dim())
	est := &estimate.Estimator{
		Space:  space,
		Policy: opts.Policy,
		K:      opts.K,
		Index:  expdb.NewVertexIndex,
	}
	g := &Gate{
		opts: opts, metrics: m.orNop(), est: est, seen: map[string]bool{},
		effMaxDist:     opts.MaxVertexDist,
		effMaxResidual: opts.MaxRelResidual,
		effMinRecords:  opts.MinRecords,
	}
	g.publishThresholds()
	return g
}

// publishThresholds mirrors the effective acceptance onto the gauges.
// Callers hold g.mu (or own the gate exclusively, as NewGate does).
func (g *Gate) publishThresholds() {
	g.metrics.GateEffMaxDist.Set(g.effMaxDist)
	g.metrics.GateEffMaxResidual.Set(g.effMaxResidual)
	g.metrics.GateEffMinRecords.Set(float64(g.effMinRecords))
}

// Observe records a measured truth. Estimated values must never be fed
// back — the gate would otherwise fit planes through its own guesses.
func (g *Gate) Observe(cfg search.Config, perf float64) {
	if !isFinite(perf) {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	key := cfg.Key()
	if g.seen[key] {
		return // duplicates add no geometric information
	}
	g.seen[key] = true
	g.recs = append(g.recs, estimate.Record{Config: cfg.Clone(), Perf: perf, Seq: g.seq})
	g.seq++
	if len(g.recs) > g.opts.MaxRecords {
		// Drop the oldest half; the survivors keep their Seq ordering.
		keep := g.recs[len(g.recs)/2:]
		g.recs = append([]estimate.Record(nil), keep...)
		g.seen = make(map[string]bool, len(g.recs))
		for _, r := range g.recs {
			g.seen[r.Config.Key()] = true
		}
		g.prepared, g.prepLen = nil, 0
	}
}

// Len returns the number of recorded truths.
func (g *Gate) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.recs)
}

// Flush discards every recorded truth, the fitted index and the open
// calibration window — the gate starts over geometrically. The server calls
// it when a session detects workload drift: planes fitted through pre-drift
// measurements would answer post-drift probes with stale performance. The
// effective acceptance thresholds survive a flush (a gate that had to
// tighten stays tight until post-drift truth checks earn the width back).
func (g *Gate) Flush() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.recs = nil
	g.seen = map[string]bool{}
	g.prepared, g.prepLen = nil, 0
	g.errSum, g.errN = 0, 0
	g.errScale, g.errScaleN = 0, 0
}

// RecordTruthError feeds one calibration truth check into the adaptive
// shrink: absErr is |measured - estimated| and scale the measured
// magnitude. Errors are normalized by an EWMA of the measured magnitudes
// across checks — not by this check's own |measured|, which would explode
// on an objective that legitimately passes near zero — and each check's
// relative error is capped at the window's whole error budget
// (AdaptErrorBound·AdaptWindow), so a single outlier can prime a shrink
// but never force one by itself. Each AdaptWindow-sized batch of checks
// produces one verdict — a mean relative error over AdaptErrorBound halves
// the distance and residual acceptance and doubles the record floor
// (counted on harmony_gate_shrinks_total); a mean under half the bound
// re-widens by 25% toward (never past) the configured acceptance. In
// between, the gate holds.
func (g *Gate) RecordTruthError(absErr, scale float64) {
	if g.opts.AdaptErrorBound < 0 || !isFinite(absErr) || !isFinite(scale) {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.errScaleN == 0 {
		g.errScale = math.Abs(scale)
	} else {
		g.errScale = 0.75*g.errScale + 0.25*math.Abs(scale)
	}
	g.errScaleN++
	rel := absErr / math.Max(g.errScale, 1e-12)
	if lim := g.opts.AdaptErrorBound * float64(g.opts.AdaptWindow); rel > lim {
		rel = lim
	}
	g.errSum += rel
	g.errN++
	if g.errN < g.opts.AdaptWindow {
		return
	}
	mean := g.errSum / float64(g.errN)
	g.errSum, g.errN = 0, 0
	switch {
	case mean > g.opts.AdaptErrorBound:
		g.effMaxDist = math.Max(g.effMaxDist/2, g.opts.MaxVertexDist/gateShrinkFloor)
		g.effMaxResidual = math.Max(g.effMaxResidual/2, g.opts.MaxRelResidual/gateShrinkFloor)
		if g.effMinRecords < g.opts.MinRecords*gateShrinkFloor {
			g.effMinRecords *= 2
		}
		g.metrics.GateShrinks.Inc()
	case mean < g.opts.AdaptErrorBound/2:
		g.effMaxDist = math.Min(g.effMaxDist*1.25, g.opts.MaxVertexDist)
		g.effMaxResidual = math.Min(g.effMaxResidual*1.25, g.opts.MaxRelResidual)
		if half := g.effMinRecords / 2; half >= g.opts.MinRecords {
			g.effMinRecords = half
		} else {
			g.effMinRecords = g.opts.MinRecords
		}
	default:
		return // accuracy in the dead band: hold the current acceptance
	}
	g.publishThresholds()
}

// EffectiveThresholds reports the current (possibly adapted) acceptance:
// the max vertex distance, max relative residual and record floor the next
// Estimate call will apply.
func (g *Gate) EffectiveThresholds() (maxDist, maxResidual float64, minRecords int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.effMaxDist, g.effMaxResidual, g.effMinRecords
}

// Estimate answers a probe from the plane fit when the fit is
// well-supported: enough records, non-degenerate, every chosen vertex
// within MaxVertexDist, residual within MaxRelResidual of the performance
// scale, finite value. Otherwise ok is false and the caller must measure.
func (g *Gate) Estimate(cfg search.Config) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.recs) < g.effMinRecords {
		return 0, false // too little history; not even worth counting
	}
	if g.prepared == nil || len(g.recs)-g.prepLen >= g.opts.RefreshEvery {
		p, err := g.est.Prepare(g.recs)
		if err != nil {
			g.metrics.GateRejects.Inc()
			return 0, false
		}
		g.prepared, g.prepLen = p, len(g.recs)
	}
	d, err := g.prepared.EstimateDetailed(cfg)
	switch {
	case err != nil,
		d.Degenerate,
		d.Vertices < g.opts.K,
		d.MaxVertexDist > g.effMaxDist,
		d.Residual > g.effMaxResidual*math.Max(d.PerfScale, 1e-12),
		!isFinite(d.Value):
		g.metrics.GateRejects.Inc()
		return 0, false
	}
	g.metrics.Estimated.Inc()
	return d.Value, true
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Layer binds a Cache (exact memo + claims) and an optional Gate to one
// evaluator, implementing search.ExternalCache. Several sessions'
// layers may share one Cache and Gate (the server's shared scope); the
// layer itself is cheap per-session state.
type Layer struct {
	// Cache is the exact-hit memo (required).
	Cache *Cache
	// Gate, when non-nil, may answer memo misses with a §4.3 estimate.
	// Exact-only mode (nil Gate) is trajectory-preserving; gated mode is
	// not, and is therefore opt-in.
	Gate *Gate
	// TruthCheckEvery, when positive, forces every Nth gate-answered probe
	// of this layer to a real measurement anyway: Lookup declines the
	// estimate (holding it aside), a real measurement is paid, and the
	// absolute error between the two is observed on the metrics bundle's
	// EstimateAbsError histogram. The measured truth enters the memo and
	// the gate as usual, so a truth check is never wasted work.
	TruthCheckEvery int

	// calMu guards the calibration pacing state below (layers are shared by
	// the evaluator's worker goroutines).
	calMu   sync.Mutex
	gated   int
	pending map[string]float64 // cfg key -> declined estimate, awaiting truth
}

// Lookup answers a full-fidelity probe: exact memo first, then the gate.
func (l *Layer) Lookup(cfg search.Config) (perf float64, estimated, ok bool) {
	key := cfg.Key()
	if perf, ok := l.Cache.Lookup(key); ok {
		return perf, false, true
	}
	if l.Gate != nil {
		if perf, ok := l.Gate.Estimate(cfg); ok {
			if l.takeTruthCheck(key, perf) {
				// Calibration: decline the estimate so the evaluator pays a
				// real measurement; Settle correlates it back by key. No
				// wall-clock is credited — none was saved.
				return 0, false, false
			}
			// Credit the estimated answer with the cache's mean measurement
			// cost — the best available stand-in for "what this probe would
			// have cost for real".
			l.Cache.metrics.SavedSeconds.Add(l.Cache.MeanCost().Seconds())
			return perf, true, true
		}
	}
	return 0, false, false
}

// takeTruthCheck paces calibration: it reports whether this gate-answered
// probe is the layer's Nth and must be measured for real, parking the
// estimate until the measurement settles.
func (l *Layer) takeTruthCheck(key string, est float64) bool {
	if l.TruthCheckEvery <= 0 {
		return false
	}
	l.calMu.Lock()
	defer l.calMu.Unlock()
	l.gated++
	if l.gated%l.TruthCheckEvery != 0 {
		return false
	}
	if l.pending == nil {
		l.pending = map[string]float64{}
	}
	l.pending[key] = est
	return true
}

// observe feeds a leader's settled full-fidelity truth to the gate and
// closes any truth check pending on key.
func (l *Layer) observe(key string, cfg search.Config, perf float64) {
	if l.Gate != nil {
		l.Gate.Observe(cfg, perf)
	}
	l.closeCheck(key, perf)
}

// checking reports whether a truth check is pending on key.
func (l *Layer) checking(key string) bool {
	if l.TruthCheckEvery <= 0 {
		return false
	}
	l.calMu.Lock()
	defer l.calMu.Unlock()
	_, pending := l.pending[key]
	return pending
}

// closeCheck resolves the truth check pending on key, if any, with the
// measured perf.
func (l *Layer) closeCheck(key string, perf float64) {
	if l.TruthCheckEvery <= 0 {
		return
	}
	l.calMu.Lock()
	est, pending := l.pending[key]
	if pending {
		delete(l.pending, key)
	}
	l.calMu.Unlock()
	if pending {
		m := l.Cache.metrics
		m.TruthChecks.Inc()
		m.EstimateAbsError.Observe(math.Abs(perf - est))
		if l.Gate != nil {
			// Close the calibration loop: a run of bad checks tightens
			// the gate's acceptance, sustained accuracy re-widens it.
			l.Gate.RecordTruthError(math.Abs(perf-est), perf)
		}
	}
}

// fidelityKey returns the memo key for a (config, fidelity) pair. Full
// fidelity keeps the plain config key, so every pre-multi-fidelity entry
// (and warm fill, and peer truth) remains addressable unchanged.
func fidelityKey(key string, fidelity float64) string {
	if search.FullFidelity(fidelity) {
		return key
	}
	return key + "@" + strconv.FormatFloat(fidelity, 'g', -1, 64)
}

// LookupAt implements search.ExternalCache with promotion-aware reuse: a
// full-fidelity truth in the memo answers a reduced-fidelity probe (the
// real number is strictly better information than a noisy short run), but
// a reduced-fidelity entry only ever answers its own (config, fidelity)
// pair — it is never promoted to a full-fidelity answer. The estimation
// gate is a full-fidelity instrument and stays out of reduced-fidelity
// probes entirely.
func (l *Layer) LookupAt(cfg search.Config, fidelity float64) (perf float64, estimated, ok bool) {
	if search.FullFidelity(fidelity) {
		return l.Lookup(cfg)
	}
	key := cfg.Key()
	if perf, ok := l.Cache.Lookup(key); ok { // promoted full-fidelity truth
		return perf, false, true
	}
	if perf, ok := l.Cache.Lookup(fidelityKey(key, fidelity)); ok {
		return perf, false, true
	}
	return 0, false, false
}

// Claim implements search.ExternalCache: a claim on the shared cache, keyed
// on (config, fidelity). A full-fidelity leader's settled truth also feeds
// the gate; reduced-fidelity observations never do — its plane is fitted
// through ground truth only.
func (l *Layer) Claim(cfg search.Config, fidelity float64) (search.Claim, bool) {
	key := cfg.Key()
	if !search.FullFidelity(fidelity) {
		return l.Cache.claim(fidelityKey(key, fidelity), nil, nil)
	}
	f, lead := l.Cache.claim(key, l, cfg)
	if !lead && l.checking(key) {
		return checkedWait{f, l, key}, false
	}
	return f, lead
}

// checkedWait is a follower's claim on a key its layer holds a truth check
// for: the peer's measurement is a real one, so it closes the check.
type checkedWait struct {
	*flight
	l   *Layer
	key string
}

func (c checkedWait) Wait() (float64, bool) {
	perf, ok := c.flight.Wait()
	if ok {
		c.l.closeCheck(c.key, perf)
	}
	return perf, ok
}

// Fill hydrates both the memo and the gate with a prior-run truth (the
// warm fill at session registration).
func (l *Layer) Fill(cfg search.Config, perf float64) {
	l.Cache.Put(cfg.Key(), perf, 0)
	l.Cache.metrics.Fills.Inc()
	if l.Gate != nil {
		l.Gate.Observe(cfg, perf)
	}
}
