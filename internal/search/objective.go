package search

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Direction states whether larger or smaller objective values are better.
// The paper's web-service metric (WIPS) is maximized; generic optimization
// literature minimizes. The kernel supports both.
type Direction int

const (
	// Maximize means higher performance values are better (e.g. WIPS).
	Maximize Direction = iota
	// Minimize means lower values are better (e.g. latency, runtime).
	Minimize
)

// String implements fmt.Stringer with the wire spellings ("max" / "min").
func (d Direction) String() string {
	if d == Minimize {
		return "min"
	}
	return "max"
}

// Better reports whether a is strictly better than b under the direction.
func (d Direction) Better(a, b float64) bool {
	if d == Maximize {
		return a > b
	}
	return a < b
}

// Objective measures the performance of one configuration. Measurements may
// be noisy and expensive; the kernel treats each call as one configuration
// exploration (the paper's unit of tuning time).
type Objective interface {
	Measure(cfg Config) float64
}

// ObjectiveFunc adapts a plain function to the Objective interface.
type ObjectiveFunc func(cfg Config) float64

// Measure calls f.
func (f ObjectiveFunc) Measure(cfg Config) float64 { return f(cfg) }

// FidelityObjective is an Objective that can also measure at reduced
// fidelity: a cheaper, noisier observation of the same configuration
// (shorter simulated horizon, fewer sampled requests). fidelity is in
// (0, 1]; MeasureAt(cfg, 1) must agree with Measure(cfg). Objectives that
// do not implement it are measured at full cost regardless of the
// requested fidelity.
type FidelityObjective interface {
	Objective
	MeasureAt(cfg Config, fidelity float64) float64
}

// FidelityObjectiveFunc adapts a fidelity-aware function to
// FidelityObjective; full-fidelity Measure delegates with fidelity 1.
type FidelityObjectiveFunc func(cfg Config, fidelity float64) float64

// Measure calls f at full fidelity.
func (f FidelityObjectiveFunc) Measure(cfg Config) float64 { return f(cfg, 1) }

// MeasureAt calls f.
func (f FidelityObjectiveFunc) MeasureAt(cfg Config, fidelity float64) float64 {
	return f(cfg, fidelity)
}

// FullFidelity reports whether f denotes a full-fidelity measurement.
// Zero means "unset" and is treated as full so the single-fidelity world
// never has to think about the field.
func FullFidelity(f float64) bool { return f == 0 || f >= 1 }

// Evaluation records one configuration exploration.
type Evaluation struct {
	Index  int     // 0-based exploration order
	Config Config  // the (snapped) configuration measured
	Perf   float64 // observed performance
	// Estimated reports that Perf came from the external layer's
	// estimation gate (§4.3) rather than a real measurement. Estimated
	// entries consume budget and steer the search like any committed
	// evaluation, but they are not ground truth: experience deposits
	// filter them out (see Trace.Measured).
	Estimated bool
	// Fidelity is the measurement fidelity (0 or 1 = full). Low-fidelity
	// observations are cheap but noisy triage data: experience deposits
	// filter them out (see Trace.Measured) so they never masquerade as
	// ground truth in the prior-run store.
	Fidelity float64
}

// Trace is the ordered history of explorations in one tuning session.
type Trace []Evaluation

// Measured returns the trace restricted to full-fidelity real
// measurements — entries the estimation gate answered, low-fidelity triage
// observations and failure-scored points (a lost or non-finite report,
// see IsFailure) are dropped. Experience deposits use it so neither
// estimates, noisy rung samples nor penalties masquerade as ground truth
// in the prior-run store. When nothing needs filtering the receiver itself
// is returned (no copy).
func (t Trace) Measured() Trace {
	drop := 0
	for _, e := range t {
		if !e.measured() {
			drop++
		}
	}
	if drop == 0 {
		return t
	}
	out := make(Trace, 0, len(t)-drop)
	for _, e := range t {
		if e.measured() {
			out = append(out, e)
		}
	}
	return out
}

// measured reports whether e is a real full-fidelity measurement.
func (e Evaluation) measured() bool {
	return !e.Estimated && FullFidelity(e.Fidelity) && !IsFailure(e.Perf, Maximize)
}

// Best returns the best evaluation under dir. Real full-fidelity
// measurements are strictly preferred: neither a gate estimate (an
// unmeasured plane-fit answer, §4.3) nor a noisy low-fidelity triage
// observation can be the best while the trace holds any real measurement
// — a session's reported best must be a measured truth, which the cache
// bench's gated mode checks end to end. Among the second-class
// entries, full-fidelity estimates outrank low-fidelity observations.
// Traces with neither gate nor triage entries are unaffected. It panics
// on an empty trace.
func (t Trace) Best(dir Direction) Evaluation {
	if len(t) == 0 {
		panic("search: Best of empty trace")
	}
	rank := func(e Evaluation) int {
		switch {
		case !FullFidelity(e.Fidelity):
			return 0
		case e.Estimated:
			return 1
		}
		return 2
	}
	best := t[0]
	bestRank := rank(best)
	for _, e := range t[1:] {
		switch r := rank(e); {
		case r > bestRank:
			best, bestRank = e, r
		case r == bestRank && dir.Better(e.Perf, best.Perf):
			best = e
		}
	}
	return best
}

// Worst returns the worst performance observed, the paper's Table 1
// "worst performance" column (how rough the tuning ride was).
func (t Trace) Worst(dir Direction) Evaluation {
	if len(t) == 0 {
		panic("search: Worst of empty trace")
	}
	worst := t[0]
	for _, e := range t[1:] {
		if dir.Better(worst.Perf, e.Perf) {
			worst = e
		}
	}
	return worst
}

// Perfs returns the raw performance series.
func (t Trace) Perfs() []float64 {
	out := make([]float64, len(t))
	for i, e := range t {
		out[i] = e.Perf
	}
	return out
}

// ConvergenceIteration returns the 1-based exploration index after which the
// best-so-far value never again improves by more than relTol (relative to
// the final best). This matches the paper's "convergence time (iterations)":
// the point where tuning has effectively finished even if the search keeps
// probing. Returns 0 for an empty trace.
func (t Trace) ConvergenceIteration(dir Direction, relTol float64) int {
	if len(t) == 0 {
		return 0
	}
	final := t.Best(dir).Perf
	tol := relTol * abs(final)
	// Find the earliest index where best-so-far is within tol of the final.
	best := t[0].Perf
	for i, e := range t {
		if dir.Better(e.Perf, best) {
			best = e.Perf
		}
		if !dir.Better(final, best) || abs(final-best) <= tol {
			return i + 1
		}
	}
	return len(t)
}

// BadIterations counts explorations whose performance falls below (for
// Maximize; above for Minimize) the given fraction of the final best. The
// paper reports "bad performance iterations" when comparing tuning with and
// without prior histories (§6.4).
func (t Trace) BadIterations(dir Direction, frac float64) int {
	if len(t) == 0 {
		return 0
	}
	best := t.Best(dir).Perf
	count := 0
	for _, e := range t {
		if dir == Maximize {
			if e.Perf < frac*best {
				count++
			}
		} else {
			if e.Perf > best/frac {
				count++
			}
		}
	}
	return count
}

// InitialWindow returns the first k evaluations (or the whole trace when it
// is shorter). The paper's Table 2 reports the mean and standard deviation of
// performance in the initial oscillation stage.
func (t Trace) InitialWindow(k int) Trace {
	if k > len(t) {
		k = len(t)
	}
	return t[:k]
}

// BatchObjective is an Objective that measures a whole batch of
// configurations in one call: the tuning server, whose client measures them
// over the wire. The Evaluator hands it every batch it needs measured (one
// configuration for Eval, many for EvalBatch and Speculate) instead of
// fanning Measure out over worker goroutines.
//
// MeasureBatch sets Perf and Done on each probe it resolves. It may stop
// early by panicking: the probes it resolved before then keep Done set, and
// the Evaluator commits (EvalBatch) and stores them before the panic
// continues, so a measurement that was paid for is never dropped.
type BatchObjective interface {
	Objective
	MeasureBatch(ps []Probe)
}

// Probe is one configuration in a measurement batch.
type Probe struct {
	Config Config
	// Fidelity is the requested measurement fidelity (0 or ≥1: full).
	Fidelity float64
	// Perf is the measured performance, valid once Done is set.
	Perf float64
	Done bool
}

// ExternalCache is the measure-once layer an Evaluator consults between
// its own per-session bookkeeping and the real objective: a cross-session
// (config, fidelity)→perf memo, optionally backed by the §4.3 estimation
// gate (see the evalcache package).
//
// Contract: LookupAt answers with a previously measured truth (estimated ==
// false) or a gate estimate (estimated == true). Reuse is promotion-aware: a
// full-fidelity truth may answer a lower-fidelity probe, but a low-fidelity
// observation never answers a full-fidelity one. Put stores a measurement
// the objective made for a probe LookupAt could not answer; cost is the
// wall time of the batch that measured it. Implementations must be safe
// for concurrent use.
//
// Externally answered probes are committed to the trace exactly like
// measurements (budget charge, trace index, tracer event), so with a
// deterministic objective and exact-only answers the committed trajectory
// is byte-identical to an uncached run — only the number of real objective
// invocations drops.
type ExternalCache interface {
	LookupAt(cfg Config, fidelity float64) (perf float64, estimated, ok bool)
	Put(cfg Config, fidelity float64, perf float64, cost time.Duration)
}

// Evaluator wraps an Objective with exploration counting, a snap-to-grid
// step, a deduplication cache and trace recording. The cache mirrors the
// tuning server's record of "all the parameter values together with the
// associated performance results" (§4.2): re-visiting a configuration does
// not cost another measurement.
type Evaluator struct {
	Space     *Space
	Objective Objective
	// MaxEvals, when > 0, bounds the number of distinct measurements; further
	// measurements return the cached value when available or an error.
	MaxEvals int
	// DisableCache forces re-measurement of repeated configurations (used by
	// the ablation bench to quantify the cache's value under noise).
	DisableCache bool
	// Tracer, when non-nil, receives an EventEval for every exploration
	// (fresh measurements and cache hits). Events are emitted in commit
	// order — even for parallel batches — so the stream is deterministic
	// for deterministic objectives. Nil costs one branch per call.
	Tracer Tracer
	// External, when non-nil, is the measure-once layer consulted after a
	// local cache miss and budget check: an external answer (prior truth,
	// peer measurement, or gate estimate) is committed exactly like a fresh
	// measurement, and every measurement is put into it. Ignored when
	// DisableCache is set (the ablation mode re-measures everything by
	// design).
	External ExternalCache

	trace Trace
	// memo is the deduplication cache, keyed by content: an open-addressing
	// table over the trace whose slots hold a trace index plus one (0 is
	// empty). A slot is found from a hash of the configuration and its
	// fidelity, and a collision is resolved by comparing the trace entry's
	// values and fidelity, so neither a lookup nor a commit builds a key.
	// The latest evaluation of a (configuration, fidelity) pair owns its
	// slot. memoLen counts the occupied slots; the table doubles before it
	// is three quarters full.
	memo    []int32
	memoLen int
	// hash replaces memoHash when set: tests force collisions with it.
	hash func(Config, float64) uint64
	hits int
	// slab is the unused tail of the block the evaluator carves the
	// configurations it keeps from (see keep).
	slab Config
	// snapBuf is the reusable configuration a continuous probe point snaps
	// into (see snap), reused because every evaluation runs on the
	// evaluator's own goroutine: a memo hit allocates nothing, and a commit
	// copies it into the configuration it keeps.
	snapBuf Config
	// one is measureOne's batch of one, reused for the same reason: a
	// single evaluation allocates nothing to reach a BatchObjective.
	one [1]Probe
	// batch and spec are evalBatch's and Speculate's scratch, reused for the
	// same reason.
	batch batchScratch
	spec  Speculation
}

// appendKey appends cfg's canonical key form (see Config.Key) to b.
func appendKey(b []byte, c Config) []byte {
	for i, v := range c {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// evalHint sizes a new evaluator's trace, memo and first slab. A tuning
// session typically ends within a few dozen evaluations, so most never grow
// them: growing them from empty cost a 22-evaluation session about ten
// allocations.
const evalHint = 32

// NewEvaluator returns an Evaluator over the space and objective.
func NewEvaluator(space *Space, obj Objective) *Evaluator {
	return &Evaluator{
		Space: space, Objective: obj,
		trace: make(Trace, 0, evalHint),
		memo:  make([]int32, 2*evalHint),
	}
}

// memoHash mixes a configuration and its fidelity (0 for full) into the
// memo's slot hash.
func memoHash(c Config, fidelity float64) uint64 {
	h := math.Float64bits(fidelity) ^ 0x9e3779b97f4a7c15
	for _, v := range c {
		h = (h ^ uint64(v)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h *= 0x94d049bb133111eb
	return h ^ h>>29
}

// slot returns the memo slot a search for (cfg, fidelity) starts from.
func (e *Evaluator) slot(cfg Config, fidelity float64) int {
	h := memoHash
	if e.hash != nil {
		h = e.hash
	}
	return int(h(cfg, fidelity) & uint64(len(e.memo)-1))
}

// sameFidelity reports whether two memo fidelities name the same rung. Full
// fidelity is always committed as 0; NaN matches NaN, as its key text did.
func sameFidelity(a, b float64) bool { return a == b || (a != a && b != b) }

// lookup returns the trace index of the latest evaluation of cfg at the
// given fidelity (0 for full), or -1.
func (e *Evaluator) lookup(cfg Config, fidelity float64) int {
	if len(e.memo) == 0 {
		return -1
	}
	mask := len(e.memo) - 1
	for s := e.slot(cfg, fidelity); ; s = (s + 1) & mask {
		i := int(e.memo[s]) - 1
		if i < 0 {
			return -1
		}
		if t := &e.trace[i]; sameFidelity(t.Fidelity, fidelity) && t.Config.Equal(cfg) {
			return i
		}
	}
}

// index files trace entry i in the memo, growing the table first when it
// would pass three quarters full.
func (e *Evaluator) index(i int) {
	if 4*(e.memoLen+1) > 3*len(e.memo) {
		old := e.trace[:i]
		e.memo, e.memoLen = make([]int32, max(2*len(e.memo), 2*evalHint)), 0
		for j := range old {
			e.place(j)
		}
	}
	e.place(i)
}

// place files trace entry i in a table with room: in the slot of an earlier
// evaluation of the same configuration and fidelity, or in a free one.
func (e *Evaluator) place(i int) {
	t := &e.trace[i]
	mask := len(e.memo) - 1
	for s := e.slot(t.Config, t.Fidelity); ; s = (s + 1) & mask {
		j := int(e.memo[s]) - 1
		if j < 0 {
			e.memoLen++
		} else if u := &e.trace[j]; !sameFidelity(u.Fidelity, t.Fidelity) || !u.Config.Equal(t.Config) {
			continue
		}
		e.memo[s] = int32(i + 1)
		return
	}
}

// keep returns the evaluator's own copy of cfg, which its trace entry, memo
// and tracer events share and treat as immutable. Copies are carved from a
// slab: the first holds evalHint configurations, each later one as many as
// the trace already holds, and none more than the budget has left. The
// copy's capacity ends at its length, so appending to it reallocates
// instead of writing into the next configuration.
func (e *Evaluator) keep(cfg Config) Config {
	d := len(cfg)
	if len(e.slab) < d {
		n := max(len(e.trace), evalHint)
		if e.MaxEvals > 0 {
			n = min(n, e.MaxEvals-len(e.trace))
		}
		e.slab = make(Config, max(n, 1)*d)
	}
	kept := e.slab[:d:d]
	e.slab = e.slab[d:]
	copy(kept, cfg)
	return kept
}

// ErrBudget is returned by Eval when the exploration budget is exhausted.
var ErrBudget = fmt.Errorf("search: evaluation budget exhausted")

// Eval measures the configuration nearest to the continuous point pt.
// Cached configurations are free; fresh measurements append to the trace.
// Like every Eval method it returns the evaluator's own configuration,
// which its trace and memo share: callers must not modify it.
func (e *Evaluator) Eval(pt []float64) (Config, float64, error) {
	return e.EvalConfig(e.snap(pt))
}

// snap snaps pt into the evaluator's scratch configuration, which stays
// valid until the next snap. Everything the evaluator keeps is a copy.
func (e *Evaluator) snap(pt []float64) Config {
	if len(e.snapBuf) != e.Space.Dim() {
		e.snapBuf = make(Config, e.Space.Dim())
	}
	return e.Space.snapInto(e.snapBuf, pt)
}

// hit answers a probe from memo entry i: it counts the hit, emits the
// cache-hit event and returns the entry's configuration and value.
func (e *Evaluator) hit(i int, fidelity float64) (Config, float64) {
	t := &e.trace[i]
	e.hits++
	if e.Tracer != nil {
		emit(e.Tracer, Event{Type: EventEval, Index: -1, Config: t.Config, Perf: t.Perf, Cached: true, Fidelity: fidelity})
	}
	return t.Config, t.Perf
}

// EvalConfig measures an exact grid configuration. Neither a memo hit nor a
// commit allocates, apart from a new slab once the last one is used up.
func (e *Evaluator) EvalConfig(cfg Config) (Config, float64, error) {
	if !e.Space.Contains(cfg) {
		return nil, 0, fmt.Errorf("search: configuration %v not in space", cfg)
	}
	if !e.DisableCache {
		if i := e.lookup(cfg, 0); i >= 0 {
			c, perf := e.hit(i, 0)
			return c, perf, nil
		}
	}
	if e.MaxEvals > 0 && len(e.trace) >= e.MaxEvals {
		return nil, 0, ErrBudget
	}
	kept := e.keep(cfg)
	perf, estimated := e.measureOne(kept, 0)
	e.commit(kept, perf, estimated, 0)
	return kept, perf, nil
}

// EvalAt measures the configuration nearest to the continuous point pt at
// the given fidelity. See EvalConfigAt.
func (e *Evaluator) EvalAt(pt []float64, fidelity float64) (Config, float64, error) {
	return e.EvalConfigAt(e.snap(pt), fidelity)
}

// EvalConfigAt measures an exact grid configuration at the given fidelity.
// Full fidelity (0 or ≥1) takes the unchanged EvalConfig path, so
// trajectories are byte-identical when multi-fidelity is off. Reduced
// fidelity keys the dedup cache on (config, fidelity) with promotion-aware
// reuse: a full-fidelity truth already in the cache answers any probe, but
// a low-fidelity observation never answers a full-fidelity one.
func (e *Evaluator) EvalConfigAt(cfg Config, fidelity float64) (Config, float64, error) {
	if FullFidelity(fidelity) {
		return e.EvalConfig(cfg)
	}
	if !e.Space.Contains(cfg) {
		return nil, 0, fmt.Errorf("search: configuration %v not in space", cfg)
	}
	if !e.DisableCache {
		if i := e.lookup(cfg, 0); i >= 0 { // promoted truth
			c, perf := e.hit(i, 0)
			return c, perf, nil
		}
		if i := e.lookup(cfg, fidelity); i >= 0 { // same-rung repeat
			c, perf := e.hit(i, fidelity)
			return c, perf, nil
		}
	}
	if e.MaxEvals > 0 && len(e.trace) >= e.MaxEvals {
		return nil, 0, ErrBudget
	}
	// The memo files a reduced-fidelity value under its own fidelity only:
	// it must never answer a full-fidelity probe.
	kept := e.keep(cfg)
	perf, estimated := e.measureOne(kept, fidelity)
	e.commit(kept, perf, estimated, fidelity)
	return kept, perf, nil
}

// measureOne measures one configuration through the measure path.
func (e *Evaluator) measureOne(cfg Config, fidelity float64) (perf float64, estimated bool) {
	var est [1]bool
	e.one[0] = Probe{Config: cfg, Fidelity: fidelity}
	e.measure(e.one[:], est[:], 1)
	return e.one[0].Perf, est[0]
}

// measure is the one measure path: it resolves every probe in ps, setting
// est for the ones the estimation gate answered. The external layer answers
// what it knows; the objective measures the rest in one batch, and the
// layer stores each result. A panicking objective stops the batch: the
// probes it resolved keep Done set and are stored all the same, and the
// panic continues.
func (e *Evaluator) measure(ps []Probe, est []bool, workers int) {
	ext := e.External
	if ext == nil || e.DisableCache {
		e.measureRaw(ps, workers)
		return
	}
	n := 0
	for i := range ps {
		ps[i].Perf, est[i], ps[i].Done = ext.LookupAt(ps[i].Config, ps[i].Fidelity)
		if !ps[i].Done {
			n++
		}
	}
	if n == 0 {
		return
	}
	// A batch the layer answered none of is measured in place.
	misses, at := ps, []int(nil)
	if n < len(ps) {
		misses, at = make([]Probe, 0, n), make([]int, 0, n)
		for i := range ps {
			if !ps[i].Done {
				misses, at = append(misses, ps[i]), append(at, i)
			}
		}
	}
	if at != nil {
		defer func() {
			for j, p := range misses {
				ps[at[j]] = p
			}
		}()
	}
	e.measurePut(misses, workers)
}

// measurePut measures ps with the objective and stores every measurement it
// resolved in the external layer, also when the objective panics. The
// caller has already looked each probe up.
func (e *Evaluator) measurePut(ps []Probe, workers int) {
	start := time.Now()
	defer func() {
		cost := time.Since(start)
		for _, p := range ps {
			if p.Done {
				e.External.Put(p.Config, p.Fidelity, p.Perf, cost)
			}
		}
	}()
	e.measureRaw(ps, workers)
}

// measureRaw measures ps with the objective: one MeasureBatch call for a
// BatchObjective, up to workers concurrent Measure calls otherwise. A panic
// in a plain objective's worker re-raises on the caller after every worker
// finished, the lowest index first, which keeps propagation deterministic.
func (e *Evaluator) measureRaw(ps []Probe, workers int) {
	if bo, ok := e.Objective.(BatchObjective); ok {
		bo.MeasureBatch(ps)
		return
	}
	if workers <= 1 || len(ps) == 1 {
		for i := range ps {
			ps[i].Perf, ps[i].Done = e.rawMeasure(ps[i].Config, ps[i].Fidelity), true
		}
		return
	}
	panics := runWorkers(len(ps), workers, func(i int) {
		ps[i].Perf = e.rawMeasure(ps[i].Config, ps[i].Fidelity)
		ps[i].Done = true
	})
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// rawMeasure calls the objective once. It shortens the horizon only for a
// reduced-fidelity request to a FidelityObjective; everything else is
// measured in full.
func (e *Evaluator) rawMeasure(cfg Config, fidelity float64) float64 {
	if !FullFidelity(fidelity) {
		if fo, ok := e.Objective.(FidelityObjective); ok {
			return fo.MeasureAt(cfg, fidelity)
		}
	}
	return e.Objective.Measure(cfg)
}

// commit appends one evaluation to the trace, files it in the memo and
// emits its tracer event. cfg is the evaluator's own copy (see keep): the
// memo, the trace entry and the event share it, and all treat it as
// immutable. The trace entry and the event carry the fidelity (0 for full),
// so deposits and offline analysis can separate triage from truth. Must run
// on the evaluator's own goroutine (commit order is the determinism
// guarantee).
func (e *Evaluator) commit(cfg Config, perf float64, estimated bool, fidelity float64) {
	e.trace = append(e.trace, Evaluation{Index: len(e.trace), Config: cfg, Perf: perf, Estimated: estimated, Fidelity: fidelity})
	e.index(len(e.trace) - 1)
	if e.Tracer != nil {
		emit(e.Tracer, Event{Type: EventEval, Index: len(e.trace) - 1, Config: cfg, Perf: perf, Estimated: estimated, Fidelity: fidelity})
	}
}

// Count returns the number of real measurements performed.
func (e *Evaluator) Count() int { return len(e.trace) }

// Hits returns the number of probe requests answered from the cache
// (measurements the §4.2 record-keeping saved).
func (e *Evaluator) Hits() int { return e.hits }

// Trace returns a copy of the exploration history.
func (e *Evaluator) Trace() Trace {
	return append(Trace(nil), e.trace...)
}

// truth reports whether cfg's full-fidelity cached value is a truth: a
// measured or cache-served evaluation rather than a gate estimate. The
// latest full-fidelity trace entry for cfg decides.
func (e *Evaluator) truth(cfg Config) bool {
	if i := e.lookup(cfg, 0); i >= 0 {
		return !e.trace[i].Estimated
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
