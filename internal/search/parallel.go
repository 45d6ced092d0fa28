package search

import (
	"sync"
)

// Synchronized wraps an Objective with a mutex so it can be handed to the
// parallel evaluation paths even when the underlying measurement function
// is not safe for concurrent use (for example because it draws from a
// shared noise source). The wrapper serializes measurements, so it protects
// correctness, not speed — measurement functions that are naturally
// concurrent-safe should be passed directly.
func Synchronized(obj Objective) Objective {
	var mu sync.Mutex
	return ObjectiveFunc(func(cfg Config) float64 {
		mu.Lock()
		defer mu.Unlock()
		return obj.Measure(cfg)
	})
}

// EvalBatch measures the configurations nearest to the given points, running
// up to workers measurements concurrently (sequentially when workers <= 1;
// a BatchObjective receives every configuration to measure in one call).
// The returned slices follow the input order for the longest prefix the
// evaluation budget allows; when the budget truncates the batch, err is
// ErrBudget and the slices cover the measured prefix.
//
// Cache and trace bookkeeping is deterministic: results are committed in
// input order regardless of measurement completion order, and duplicate
// configurations within the batch are measured once. The Objective must be
// safe for concurrent use when workers > 1 (wrap with Synchronized if not).
// EvalBatch itself must not be called concurrently with other Evaluator
// methods. The returned configurations are the evaluator's own (see Eval).
func (e *Evaluator) EvalBatch(pts [][]float64, workers int) ([]Config, []float64, error) {
	return e.evalBatch(pts, workers, make([]Config, 0, len(pts)), make([]float64, 0, len(pts)))
}

// evalBatch is EvalBatch appending its results to cfgs and perfs, so the
// simplex kernels can hand it per-run scratch. A nil cfgs collects no
// configurations.
func (e *Evaluator) evalBatch(pts [][]float64, workers int, cfgs []Config, perfs []float64) ([]Config, []float64, error) {
	if workers <= 1 || e.DisableCache {
		// Sequential path (the cache-off mode re-measures duplicates, which
		// has no deterministic parallel equivalent).
		for _, pt := range pts {
			cfg, perf, err := e.Eval(pt)
			if err != nil {
				return cfgs, perfs, err
			}
			if cfgs != nil {
				cfgs = append(cfgs, cfg)
			}
			perfs = append(perfs, perf)
		}
		return cfgs, perfs, nil
	}

	// Snap everything and find the configurations that need measuring, in
	// first-occurrence order. Each point's snapped configuration and key
	// are built once: a measured one is committed with both.
	snapped := make([]Config, len(pts))
	keys := make([]string, len(pts))
	need := make([]int, 0, len(pts)) // indexes into snapped
	seen := map[string]bool{}
	for i, pt := range pts {
		snapped[i] = e.Space.Snap(pt)
		keys[i] = snapped[i].Key()
		if seen[keys[i]] {
			continue
		}
		seen[keys[i]] = true
		if m, ok := e.cache[keys[i]]; !ok {
			need = append(need, i)
		} else {
			e.hits++
			if e.Tracer != nil {
				emit(e.Tracer, Event{Type: EventEval, Index: -1, Config: m.cfg, Perf: m.perf, Cached: true})
			}
		}
	}

	// Budget: only the first `allowed` missing configurations get measured.
	allowed := len(need)
	truncated := false
	if e.MaxEvals > 0 {
		remaining := e.MaxEvals - len(e.trace)
		if remaining < allowed {
			allowed, truncated = remaining, true
		}
		if allowed < 0 {
			allowed = 0
		}
	}
	ps := make([]Probe, allowed)
	est := make([]bool, allowed)
	for i := range ps {
		ps[i].Config = snapped[need[i]]
	}
	func() {
		// Commit in input order. Tracer events follow the commit order — not
		// the (nondeterministic) measurement completion order — so the event
		// stream stays deterministic under parallel evaluation. The commit
		// also runs when the objective panics mid-batch (the server's
		// objective does when its client disconnects): the panic path only
		// arises when the session is dying, and the partial trace the server
		// deposits should keep every measurement the client paid for,
		// wherever in the batch the disconnect struck.
		defer func() {
			for i := range ps {
				if ps[i].Done {
					e.commit(ps[i].Config, keys[need[i]], ps[i].Perf, est[i], 0)
				}
			}
		}()
		e.measure(ps, est, workers)
	}()

	// Assemble results for the longest answerable prefix.
	for _, key := range keys {
		m, ok := e.cache[key]
		if !ok {
			return cfgs, perfs, ErrBudget
		}
		if cfgs != nil {
			cfgs = append(cfgs, m.cfg)
		}
		perfs = append(perfs, m.perf)
	}
	if truncated {
		return cfgs, perfs, ErrBudget
	}
	return cfgs, perfs, nil
}

// runWorkers runs fn(i) for every i in [0, n) on up to `workers` concurrent
// goroutines and waits for all of them. Panics inside fn are captured
// per-index and returned (nil entries mean clean completion) so the caller
// can re-raise on its own goroutine — a panicking objective must unwind the
// caller, never crash the process from an anonymous goroutine. When several
// workers panic, the caller conventionally re-raises the lowest index,
// which keeps panic propagation deterministic.
func runWorkers(n, workers int, fn func(i int)) []any {
	if n <= 0 {
		return nil
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if rec := recover(); rec != nil {
					panics[i] = rec
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	return panics
}

// Speculation holds one round of concurrently measured candidate values
// that have not been committed to the evaluator: no budget was consumed, no
// trace entries were appended, and the cache is untouched. Commit happens
// selectively through EvalSpeculated. The zero value (or an empty
// speculation) is valid and makes EvalSpeculated equivalent to Eval.
//
// When the evaluator carries an External measure-once layer, every value a
// speculative round measures is remembered by that layer even if the round
// never commits it — so a candidate measured, discarded, and probed again
// iterations (or sessions) later costs nothing the second time. Before the
// layer existed, discarded speculative measurements were simply re-measured
// (the multipoint/pipelined path's duplicate-config double measurement).
type Speculation struct {
	perfs map[string]float64
	est   map[string]bool // keys answered by the estimation gate
}

// Len reports how many distinct configurations the round measured.
func (s *Speculation) Len() int {
	if s == nil {
		return 0
	}
	return len(s.perfs)
}

// Speculate concurrently measures every not-yet-cached configuration among
// the snapped candidate points, without committing anything. The simplex
// kernel uses it to overlap the measurements of all the candidates one
// iteration may need (reflection, expansion, both contractions) and then —
// via EvalSpeculated — commits only the ones the sequential algorithm
// actually probes, in the sequential order. For deterministic objectives
// the committed cache, trace, budget accounting and tracer stream are
// therefore byte-identical to the sequential kernel; only wall-clock
// changes. Candidates beyond the remaining evaluation budget are not
// measured (the sequential kernel could never commit them). A plain
// Objective must be safe for concurrent use (a BatchObjective receives the
// round in one call); a panic in any measurement is re-raised on the
// caller's goroutine. With workers <= 1 (or a disabled
// cache, whose re-measure-everything semantics have no speculative
// equivalent) the round is empty and probes fall back to real evaluations.
func (e *Evaluator) Speculate(pts [][]float64, workers int) *Speculation {
	spec := &Speculation{perfs: map[string]float64{}, est: map[string]bool{}}
	if workers <= 1 || e.DisableCache {
		return spec
	}
	need := make([]Config, 0, len(pts))
	seen := map[string]bool{}
	for _, pt := range pts {
		cfg := e.Space.Snap(pt)
		key := cfg.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := e.cache[key]; ok {
			continue
		}
		if e.External != nil {
			// The measure-once layer may already know this candidate (a
			// prior run, a peer session, or an earlier discarded round);
			// answer it for free instead of queueing a measurement.
			if perf, est, ok := e.External.LookupAt(cfg, 0); ok {
				spec.perfs[key] = perf
				spec.est[key] = est
				continue
			}
		}
		need = append(need, cfg)
	}
	if e.MaxEvals > 0 {
		remaining := e.MaxEvals - len(e.trace)
		if remaining < 0 {
			remaining = 0
		}
		if remaining < len(need) {
			need = need[:remaining]
		}
	}
	if len(need) == 0 {
		return spec
	}
	ps := make([]Probe, len(need))
	ests := make([]bool, len(need))
	for i := range ps {
		ps[i].Config = need[i]
	}
	e.measure(ps, ests, workers) // a panic unwinds the caller; nothing was committed
	for i, p := range ps {
		key := p.Config.Key()
		spec.perfs[key] = p.Perf
		spec.est[key] = ests[i]
	}
	return spec
}

// EvalSpeculated is Eval, except that when this round's speculation already
// measured the configuration the stored value is committed instead of
// calling the objective again. Commit semantics — cache entry, trace
// append, budget charge, tracer event — are identical to a fresh Eval, so
// traces cannot distinguish a speculated measurement from a sequential one.
//
// The probe is snapped into the evaluator's scratch configuration and looked
// up by its key scratch, so like EvalConfig it allocates only when it
// commits.
func (e *Evaluator) EvalSpeculated(pt []float64, spec *Speculation) (Config, float64, error) {
	cfg := e.snap(pt)
	if spec != nil && !e.DisableCache {
		e.keyBuf = appendKey(e.keyBuf[:0], cfg)
		if _, cached := e.cache[string(e.keyBuf)]; !cached {
			if perf, ok := spec.perfs[string(e.keyBuf)]; ok {
				if e.MaxEvals > 0 && len(e.trace) >= e.MaxEvals {
					return nil, 0, ErrBudget
				}
				kept := cfg.Clone()
				e.commit(kept, string(e.keyBuf), perf, spec.est[string(e.keyBuf)], 0)
				return kept, perf, nil
			}
		}
	}
	return e.EvalConfig(cfg)
}
