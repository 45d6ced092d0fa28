// Package core is the Active Harmony adaptation controller: it orchestrates
// the tuning kernel (internal/search) with the paper's improvements —
// parameter prioritization (§3), the improved initial exploration (§4.1),
// historical-data training (§4.2) and triangulation performance estimation
// (§4.3) — into one Tuner with a small surface.
//
// A tuning session proceeds in the paper's two stages:
//
//  1. Training: when an experience from the data characteristics database is
//     supplied, its best configurations become the initial simplex. Vertices
//     the history never measured are ranked by triangulation estimates, so
//     the search starts from the most promising region instead of from
//     predefined extreme configurations. The records only rank the seeds:
//     every seed is measured again under the current workload.
//  2. Tuning: the (improved) Nelder–Mead kernel searches from that start,
//     measuring real performance for every new configuration.
package core

import (
	"fmt"
	"sort"

	"harmony/internal/estimate"
	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/sensitivity"
	"harmony/internal/stats"
)

// Kernel selects the search algorithm driving a session.
type Kernel int

const (
	// KernelSimplex is the Active Harmony Nelder–Mead kernel (default).
	KernelSimplex Kernel = iota
	// KernelPowell is the direction-set baseline from the paper's related
	// work (§7). It ignores Improved and Experience (it has no simplex to
	// seed) but honours Priorities and the budget.
	KernelPowell
)

// Options configures a tuning session.
type Options struct {
	// Direction of the objective (default Maximize).
	Direction search.Direction
	// MaxEvals bounds the number of real measurements (default 200).
	MaxEvals int
	// Kernel selects the search algorithm (default the simplex kernel).
	Kernel Kernel
	// Improved selects the evenly-distributed initial exploration of §4.1;
	// false reproduces the original extreme-value exploration.
	Improved bool
	// Restarts re-runs the simplex from the best point with tighter fresh
	// simplexes after convergence, sharing the budget.
	Restarts int
	// Parallel measures the batch phases with this many concurrent
	// objective calls (the objective must then be concurrency-safe).
	Parallel int
	// PBest overrides the parallel simplex kernel's multi-point width (see
	// search.NelderMeadOptions.PBest): 0 derives it from Parallel, 1
	// forces the trajectory-preserving speculative kernel.
	PBest int
	// Priorities, when non-empty, restricts tuning to these parameter
	// indices (the top-n most sensitive parameters); all others stay at
	// their defaults. Use sensitivity.Report.TopN to obtain it.
	Priorities []int
	// Experience, when non-nil, supplies the training stage (§4.2).
	Experience *history.Experience
	// TrainingVertices is how many historical configurations seed the
	// simplex (default dim+1, i.e. the full initial simplex when the
	// history is rich enough).
	TrainingVertices int
	// RelTol is the kernel's convergence tolerance (default 1e-3).
	RelTol float64
	// External, when non-nil, is consulted before every real measurement
	// (the measure-once layer: exact memo hits, in-flight coalescing and —
	// when its estimation gate is enabled — plane-fit answers). Cached
	// answers are committed to the trace exactly like measurements, so an
	// exact-only external layer leaves the trajectory bit-identical while
	// skipping repeat objective invocations. See internal/evalcache.
	External search.ExternalCache
	// Tracer, when non-nil, receives the session's typed event stream:
	// phase markers separating the training stage (§4.2 historical
	// seeding) from the live tuning stage, every seed injection, every
	// evaluation, every simplex operation and the convergence decision.
	// Wire an obs.JSONL here for an offline-analyzable trace, or an
	// obs.TrajectoryJSONL for the reduced (iter, best, elapsed) series.
	// Nil costs one branch per emission site.
	Tracer search.Tracer
}

// Session is the outcome of one tuning run.
type Session struct {
	Result *search.Result
	// Space is the space that was actually searched (the subspace when
	// priorities were used).
	Space *search.Space
	// FullBest is the best configuration embedded back into the full space.
	FullBest search.Config
	// TrainingUsed is the number of historical vertices that seeded the
	// simplex.
	TrainingUsed int
	Direction    search.Direction
}

// Tuner runs tuning sessions over a space and objective.
type Tuner struct {
	Space     *search.Space
	Objective search.Objective
}

// New returns a Tuner.
func New(space *search.Space, obj search.Objective) *Tuner {
	return &Tuner{Space: space, Objective: obj}
}

// Run executes one tuning session.
func (t *Tuner) Run(opts Options) (*Session, error) {
	if opts.MaxEvals == 0 {
		opts.MaxEvals = 200
	}

	space := t.Space
	obj := t.Objective
	embed := func(c search.Config) search.Config { return c }

	if len(opts.Priorities) > 0 {
		sub, emb, err := t.Space.Subspace(opts.Priorities, t.Space.DefaultConfig())
		if err != nil {
			return nil, err
		}
		space = sub
		embed = emb
		inner := t.Objective
		obj = search.ObjectiveFunc(func(c search.Config) float64 {
			return inner.Measure(emb(c))
		})
	}

	ev := search.NewEvaluator(space, obj)
	ev.MaxEvals = opts.MaxEvals
	ev.Tracer = opts.Tracer
	ev.External = opts.External

	// phase marks the training-vs-live stage boundaries in the event
	// stream, so offline analysis can split a trace the way the paper's
	// tables split tuning time.
	phase := func(name, note string) {
		if opts.Tracer != nil {
			opts.Tracer.Emit(search.Event{Type: search.EventPhase, Op: name, Note: note})
		}
	}

	var res *search.Result
	var err error
	trainingUsed := 0
	switch opts.Kernel {
	case KernelPowell:
		phase("live", "kernel=powell")
		res, err = search.PowellWithEvaluator(space, ev, search.PowellOptions{
			Direction: opts.Direction,
			MaxEvals:  opts.MaxEvals,
			RelTol:    opts.RelTol,
		})
	default:
		var init search.InitStrategy
		if opts.Improved {
			init = search.DistributedInit{}
		} else {
			init = search.ExtremeInit{}
		}
		if opts.Experience != nil && len(opts.Experience.Records) > 0 {
			phase("training", fmt.Sprintf("records=%d", len(opts.Experience.Records)))
			seeds := t.trainingSeeds(space, opts)
			if trainingUsed = len(seeds); trainingUsed > 0 {
				init = search.SeededInit{Seeds: seeds, Fallback: init}
			}
		}
		// A trained simplex that confirms the experience's recorded best
		// stops on the short stall horizon or at its first failed
		// contraction (NelderMeadOptions.PriorBest).
		var priorBest *float64
		if trainingUsed > 0 {
			priorBest = &opts.Experience.Best(1)[0].Perf
		}
		phase("live", fmt.Sprintf("kernel=simplex init=%s training_vertices=%d", init.Name(), trainingUsed))
		res, err = search.NelderMeadWithEvaluator(space, ev, search.NelderMeadOptions{
			Init:      init,
			Direction: opts.Direction,
			MaxEvals:  opts.MaxEvals,
			RelTol:    opts.RelTol,
			PriorBest: priorBest,
			Restarts:  opts.Restarts,
			Parallel:  opts.Parallel,
			PBest:     opts.PBest,
			Tracer:    opts.Tracer,
		})
	}
	if err != nil {
		return nil, err
	}
	sess := &Session{
		Result:       res,
		Space:        space,
		TrainingUsed: trainingUsed,
		Direction:    opts.Direction,
	}
	if len(res.BestConfig) > 0 {
		sess.FullBest = embed(res.BestConfig)
	}
	return sess, nil
}

// trainingSeeds builds the training-stage initial simplex from the
// experience: project historical records into the (sub)space, rank by known
// or estimated performance, and return the best as continuous seed points.
func (t *Tuner) trainingSeeds(space *search.Space, opts Options) [][]float64 {
	exp := opts.Experience
	want := opts.TrainingVertices
	if want <= 0 {
		want = space.Dim() + 1
	}

	// Project each record's configuration onto the searched space: keep the
	// prioritized coordinates, snap onto the grid.
	type cand struct {
		cfg  search.Config
		perf float64
	}
	seen := map[string]bool{}
	var cands []cand
	for _, rec := range exp.Records {
		proj, ok := t.project(space, opts.Priorities, rec.Config)
		if !ok {
			continue
		}
		key := proj.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		cands = append(cands, cand{cfg: proj, perf: rec.Perf})
	}
	if len(cands) == 0 {
		return nil
	}

	// When the history is too sparse to fill the simplex, rank additional
	// candidate vertices (the distributed design) by triangulation estimates
	// so the fallback vertices are also informed by the experience (§4.3).
	if len(cands) < want {
		est := estimate.New(space)
		recs := make([]estimate.Record, 0, len(cands))
		for i, c := range cands {
			recs = append(recs, estimate.Record{Config: c.cfg, Perf: c.perf, Seq: i})
		}
		for _, pt := range (search.DistributedInit{}).Initial(space) {
			cfg := space.Snap(pt)
			if seen[cfg.Key()] {
				continue
			}
			seen[cfg.Key()] = true
			p, err := est.Estimate(recs, cfg)
			if err != nil {
				continue
			}
			cands = append(cands, cand{cfg: cfg, perf: p})
		}
	}

	sort.SliceStable(cands, func(i, j int) bool {
		return opts.Direction.Better(cands[i].perf, cands[j].perf)
	})
	if want > len(cands) {
		want = len(cands)
	}
	seeds := make([][]float64, 0, want)
	for _, c := range cands[:want] {
		seeds = append(seeds, space.Continuous(c.cfg))
	}
	return seeds
}

// project maps a full-space configuration onto the searched space,
// selecting prioritized coordinates and snapping to the grid. ok is false
// when the record has the wrong dimensionality.
func (t *Tuner) project(space *search.Space, priorities []int, cfg search.Config) (search.Config, bool) {
	if len(priorities) == 0 {
		if len(cfg) != space.Dim() {
			return nil, false
		}
		return space.Snap(space.Continuous(cfg)), true
	}
	if len(cfg) != t.Space.Dim() {
		return nil, false
	}
	sub := make([]float64, len(priorities))
	for i, idx := range priorities {
		sub[i] = float64(cfg[idx])
	}
	return space.Snap(sub), true
}

// Prioritize runs the parameter prioritizing tool over the tuner's space
// and returns the report (convenience wrapper for the common pipeline).
func (t *Tuner) Prioritize(opts sensitivity.Options) (*sensitivity.Report, error) {
	return sensitivity.Analyze(t.Space, t.Objective, opts)
}

// Characterize observes n samples from a characteristic source and returns
// the mean observation — the data analyzer's probing step for workloads
// whose characteristics arrive one request at a time.
func Characterize(n int, sample func() []float64) []float64 {
	if n <= 0 {
		return nil
	}
	first := sample()
	acc := append([]float64(nil), first...)
	for i := 1; i < n; i++ {
		s := sample()
		for j := range acc {
			acc[j] += s[j]
		}
	}
	for j := range acc {
		acc[j] /= float64(n)
	}
	return acc
}

// SessionMetrics summarizes a session with the paper's reporting metrics.
type SessionMetrics struct {
	BestPerf        float64
	ConvergenceIter int
	WorstPerf       float64
	InitialMean     float64
	InitialStdDev   float64
	BadIterations   int
	Evals           int
}

// Metrics computes the Table 1 / Table 2 quantities from a session:
// convergence iteration at relTol, worst performance seen, mean and standard
// deviation of the first initWindow explorations, and iterations below
// badFrac of the final best.
func (s *Session) Metrics(relTol float64, initWindow int, badFrac float64) SessionMetrics {
	tr := s.Result.Trace
	m := SessionMetrics{Evals: s.Result.Evals}
	if len(tr) == 0 {
		return m
	}
	m.BestPerf = tr.Best(s.Direction).Perf
	m.WorstPerf = tr.Worst(s.Direction).Perf
	m.ConvergenceIter = tr.ConvergenceIteration(s.Direction, relTol)
	win := tr.InitialWindow(initWindow).Perfs()
	m.InitialMean = stats.Mean(win)
	m.InitialStdDev = stats.StdDev(win)
	m.BadIterations = tr.BadIterations(s.Direction, badFrac)
	return m
}
