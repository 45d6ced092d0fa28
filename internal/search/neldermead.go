package search

import (
	"fmt"
)

// NelderMeadOptions configures the simplex search.
type NelderMeadOptions struct {
	// Init selects the initial simplex strategy. Defaults to ExtremeInit
	// (the original Active Harmony behaviour) when nil.
	Init InitStrategy
	// Direction states whether the objective is maximized or minimized.
	Direction Direction
	// MaxEvals bounds the number of distinct configuration measurements.
	// Defaults to 200 when zero.
	MaxEvals int
	// RelTol terminates the search when the relative performance spread of
	// the simplex falls below it. Defaults to 1e-3 when zero.
	RelTol float64
	// MaxStall terminates after this many vertex updates without
	// improvement of the best vertex. An iteration of the sequential or
	// speculative kernel counts one update and a round of the multi-point
	// walk counts p (see PBest), so a horizon costs the same simplex
	// progress on either kernel. Defaults to 4*dim when zero. A run whose
	// measured initial simplex confirms PriorBest stops after 4 (the same
	// factor without the ·dim) unless MaxStall is smaller: a warm-web
	// session is within 2% of its final best after about 1.5 client
	// measurements, and the 4·dim horizon made it spend about 6.7 times
	// that measurement time in total. Such a run also stops earlier, at its
	// first failed contraction (see PriorBest).
	MaxStall int
	// PriorBest, when non-nil, is the best performance the matched prior
	// experience recorded (§4.2); cold runs leave it nil. The prior is
	// confirmed when the best truth-valued vertex of the measured initial
	// simplex lies within 2% (the paper's convergence band) of it; a gate
	// estimate never confirms it. The confirmed horizon of 4 counts vertex
	// updates like MaxStall, so a multi-point walk of width p stops after
	// ⌈4/p⌉ rounds without a new best. Every kernel start — restarts,
	// re-tunes and the multi-point polish included — re-checks its own
	// simplex. A confirmed run ends at its first failed contraction instead
	// of shrinking: on warm-web the shrinks of confirmed runs cost 18.6% of
	// the client's measurements and bought about 0.1% of re-measured
	// performance. A multi-point walk whose start confirms the prior ends
	// at its convergence, with no polish: on hyperband-json the polishes
	// after confirmed walks spent a third of each session's
	// measurement-seconds and raised the session's best by 0.02% on
	// average.
	PriorBest *float64
	// Parallel, when > 1, measures the embarrassingly parallel phases (the
	// initial simplex and shrink steps) with this many concurrent
	// objective calls and parallelizes the main loop. Narrow spaces
	// (effective multi-point width 1 — see PBest) turn each iteration into
	// a single speculative measurement round: the reflection, expansion
	// and both contraction candidates are measured concurrently (see
	// Evaluator.Speculate) and only the sequentially probed ones are
	// committed, so results — best configuration, trace, budget
	// accounting — are identical to the sequential kernel's for
	// deterministic objectives; only wall-clock changes. Wider spaces
	// switch to the multi-point simplex, which updates several vertices
	// per concurrent round (deterministic, but a different trajectory).
	// The objective must be safe for concurrent use either way (see
	// Synchronized).
	Parallel int
	// PBest controls the multi-point simplex width: how many of the worst
	// vertices each parallel iteration updates concurrently, after Lee &
	// Wiswall's parallel Nelder–Mead. 0 derives the width as Parallel/2 —
	// each vertex's reflection and contraction candidates travel together
	// in one round, so Parallel/2 vertices fill the window — capped at
	// dim/2 so the reflection centroid stays informative; 1 forces the
	// trajectory-preserving speculative kernel regardless of Parallel;
	// larger values raise ambition up to the same dim/2 cap. Sequential
	// sessions (Parallel <= 1) always run the trajectory-identical kernel.
	PBest int
	// Restarts re-runs the search this many additional times after it
	// converges, each restart building a fresh distributed simplex centred
	// on the best point found so far at half the previous scale. Restarts
	// share the evaluation budget and cache; they help escape a prematurely
	// collapsed simplex at no cost when the first run already used the
	// budget.
	Restarts int

	// Standard Nelder–Mead coefficients; zero values take the textbook
	// defaults (reflection 1, expansion 2, contraction 0.5, shrink 0.5).
	Reflection  float64
	Expansion   float64
	Contraction float64
	Shrink      float64

	// Tracer, when non-nil, receives an EventSimplex for every operation
	// (reflect/expand/contract/shrink), an EventConverge for the
	// termination decision, and an EventPhase per restart. Evaluation
	// events come from the Evaluator's own Tracer (NelderMead wires the
	// same tracer into the evaluator it creates; with
	// NelderMeadWithEvaluator the caller controls both). Nil costs one
	// branch per emission site.
	Tracer Tracer
}

// confirmedStall is the stall horizon of a run whose initial simplex
// confirms its prior; confirmBand is the relative distance from the prior's
// recorded best within which the simplex confirms it.
const (
	confirmedStall = 4
	confirmBand    = 0.02
)

// stallHorizon returns the stall horizon for a kernel run whose initial
// simplex verts was just measured by ev, and whether the prior confirmed
// it. Only truth-valued vertices count (see Evaluator.truth).
func (o NelderMeadOptions) stallHorizon(ev *Evaluator, verts []vertex) (int, bool) {
	if o.PriorBest == nil {
		return o.MaxStall, false
	}
	prior := *o.PriorBest
	found, best := false, 0.0
	for _, v := range verts {
		if ev.truth(ev.snap(v.pt)) && (!found || o.Direction.Better(v.perf, best)) {
			found, best = true, v.perf
		}
	}
	if !found || abs(best-prior) > confirmBand*abs(prior) {
		return o.MaxStall, false
	}
	return min(o.MaxStall, confirmedStall), true
}

// stallClock is the stall rule of both simplex kernels. It counts vertex
// updates since the best vertex last improved: an iteration of the
// sequential or speculative kernel updates one vertex, a multi-point round
// updates p. The run ends once the count reaches the horizon.
type stallClock struct {
	horizon   int     // vertex updates without a new best that end the run
	confirmed bool    // a confirmed prior set the horizon (see stallHorizon)
	stalled   int     // vertex updates since the best last improved
	best      float64 // the best vertex's value when it last improved
}

// startStall starts the stall clock of a kernel run whose initial simplex
// verts, sorted best first, was just measured by ev.
func (o NelderMeadOptions) startStall(ev *Evaluator, verts []vertex) stallClock {
	c := stallClock{best: verts[0].perf}
	c.horizon, c.confirmed = o.stallHorizon(ev, verts)
	return c
}

// tick records one step that updated n vertices and left best as the best
// vertex's value: a new best resets the clock, anything else advances it.
func (c *stallClock) tick(best float64, n int, dir Direction) {
	if dir.Better(best, c.best) {
		c.best, c.stalled = best, 0
		return
	}
	c.stalled += n
}

// expired reports whether the run has stalled for its whole horizon.
func (c *stallClock) expired() bool { return c.stalled >= c.horizon }

func (o *NelderMeadOptions) fill(dim int) {
	if o.Init == nil {
		o.Init = ExtremeInit{}
	}
	if o.MaxEvals == 0 {
		o.MaxEvals = 200
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-3
	}
	if o.MaxStall == 0 {
		o.MaxStall = 4 * dim
	}
	if o.Reflection == 0 {
		o.Reflection = 1
	}
	if o.Expansion == 0 {
		o.Expansion = 2
	}
	if o.Contraction == 0 {
		o.Contraction = 0.5
	}
	if o.Shrink == 0 {
		o.Shrink = 0.5
	}
}

// Result summarizes a tuning session.
type Result struct {
	BestConfig Config
	BestPerf   float64
	Trace      Trace
	Evals      int // number of real measurements (explorations)
	Converged  bool
}

// vertex pairs a continuous simplex point with its measured performance.
type vertex struct {
	pt   []float64
	perf float64
}

// sortVertices orders a simplex best-to-worst under better. It is a stable
// insertion sort: the simplex has dim+1 vertices (a handful), and the kernel
// re-sorts every iteration, so avoiding sort.SliceStable's per-call closure
// and reflection swapper keeps the iteration allocation-free.
func sortVertices(verts []vertex, better func(a, b float64) bool) {
	for i := 1; i < len(verts); i++ {
		v := verts[i]
		j := i - 1
		for j >= 0 && better(v.perf, verts[j].perf) {
			verts[j+1] = verts[j]
			j--
		}
		verts[j+1] = v
	}
}

// NelderMead runs the adapted simplex search over the space.
//
// The algorithm is Nelder & Mead (1965) with the paper's discrete
// adaptation: every probe point is evaluated at the nearest integer grid
// configuration (§2). Because the space is bounded, probe points are clamped
// into the box before snapping.
func NelderMead(space *Space, obj Objective, opts NelderMeadOptions) (*Result, error) {
	dim := space.Dim()
	opts.fill(dim)
	ev := NewEvaluator(space, obj)
	ev.MaxEvals = opts.MaxEvals
	ev.Tracer = opts.Tracer
	return nelderMeadWithRestarts(space, ev, opts)
}

// NelderMeadWithEvaluator runs the search against a caller-managed
// evaluator, letting callers pre-seed historical measurements (§4.2) or
// share a budget across stages.
func NelderMeadWithEvaluator(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	opts.fill(space.Dim())
	return nelderMeadWithRestarts(space, ev, opts)
}

// nelderMeadWithRestarts runs the kernel, then optionally restarts from the
// best point found with progressively tighter fresh simplexes, sharing the
// evaluator (budget, cache and trace accumulate across restarts).
func nelderMeadWithRestarts(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	res, err := nelderMead(space, ev, opts)
	if err != nil {
		return nil, err
	}
	// Each restart runs a fresh simplex around the incumbent best at half
	// the previous scale. Budget exhaustion (or nothing measured) ends the
	// loop: restarting would be futile.
	scale := 0.5
	for r := 0; r < opts.Restarts && res.Converged && len(res.BestConfig) > 0; r++ {
		emit(opts.Tracer, Event{Type: EventPhase, Op: "restart", Iter: r + 1, Perf: res.BestPerf})
		restartOpts := opts
		restartOpts.Init = ScaledInit{
			Center: space.Continuous(res.BestConfig),
			Frac:   scale,
		}
		next, err := nelderMead(space, ev, restartOpts)
		if err != nil {
			return nil, err
		}
		res = next // the shared trace already spans all restarts
		scale /= 2
	}
	return res, nil
}

// ScaledInit builds a distributed simplex spanning Frac of each
// parameter's range, centred on a given point (used by restarts, the
// multi-point polish and the server's re-tunes).
type ScaledInit struct {
	Center []float64
	Frac   float64
}

// Name implements InitStrategy.
func (s ScaledInit) Name() string { return "scaled-distributed" }

// Initial implements InitStrategy.
func (s ScaledInit) Initial(space *Space) [][]float64 {
	dim := space.Dim()
	n := dim + 1
	pts := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j, p := range space.Params {
			span := float64(p.Max-p.Min) * s.Frac
			offset := (float64((i+j)%n)+0.5)/float64(n) - 0.5
			v[j] = s.Center[j] + span*offset
		}
		pts[i] = clampInto(space, v, v)
	}
	return pts
}

func nelderMead(space *Space, ev *Evaluator, opts NelderMeadOptions) (*Result, error) {
	if p := opts.pbest(space.Dim()); p > 1 {
		return nelderMeadMultiPoint(space, ev, opts, p)
	}
	r := newSimplexRun(space, ev, opts, 1, 4)
	if res, err := r.start(); res != nil || err != nil {
		return res, err
	}
	for iter := 0; ; iter++ {
		if res := r.iterate(iter); res != nil {
			return res, nil
		}
	}
}

// simplexRun is one run of a simplex kernel: the simplex and the per-run
// scratch its iterations reuse. The vertices own their points. Every
// iteration writes the centroid and its candidate points into the same
// buffers, and an accepted candidate is copied into the buffer of the
// vertex it replaces, so no vertex ever aliases scratch and a steady
// iteration allocates only what the evaluator keeps of its commits.
type simplexRun struct {
	space *Space
	ev    *Evaluator
	opts  NelderMeadOptions
	p     int      // vertices a round updates: 1, or the multi-point width
	verts []vertex // sorted best first once start returns
	clock stallClock

	centroid []float64
	// cands holds the iteration's candidate points, clamped into the box.
	// The sequential kernel's are the reflection, the expansion and the
	// outside and inside contractions; the multi-point kernel's are each
	// updated vertex's reflection and inside contraction.
	cands [][]float64
	// evalBatch scratch for the initial simplex and the shrink steps, and
	// the measured values of those and the multi-point rounds.
	batch [][]float64
	perfs []float64
}

// newSimplexRun allocates a kernel run updating p vertices a round with
// nCand candidate buffers. The vertex points, the centroid, the candidates
// and the measured values share one backing array.
func newSimplexRun(space *Space, ev *Evaluator, opts NelderMeadOptions, p, nCand int) *simplexRun {
	dim := space.Dim()
	n := dim + 1
	nPerf := max(n, nCand)
	buf := make([]float64, (n+1+nCand)*dim+nPerf)
	perfs := buf[len(buf)-nPerf : len(buf)-nPerf : len(buf)]
	next := func() []float64 {
		pt := buf[:dim:dim]
		buf = buf[dim:]
		return pt
	}
	pts := make([][]float64, nCand+n)
	r := &simplexRun{
		space: space, ev: ev, opts: opts, p: p,
		verts: make([]vertex, n),
		clock: stallClock{horizon: opts.MaxStall},
		cands: pts[:nCand:nCand],
		batch: pts[nCand:nCand],
		perfs: perfs,
	}
	for i := range r.verts {
		r.verts[i].pt = next()
	}
	r.centroid = next()
	for i := range r.cands {
		r.cands[i] = next()
	}
	return r
}

// start measures the run's initial simplex, sorts it and starts the stall
// clock. It returns the run's result when the budget ran out first, or an
// error.
func (r *simplexRun) start() (*Result, error) {
	dim := r.space.Dim()
	initPts := r.opts.Init.Initial(r.space)
	if len(initPts) != dim+1 {
		return nil, fmt.Errorf("search: init strategy %q produced %d vertices, want %d",
			r.opts.Init.Name(), len(initPts), dim+1)
	}
	r.batch = r.batch[:0]
	for i, pt := range initPts {
		r.batch = append(r.batch, clampInto(r.space, r.verts[i].pt, pt))
	}
	var err error
	_, r.perfs, err = r.ev.evalBatch(r.batch, r.opts.Parallel, nil, r.perfs[:0])
	budgetHit := err == ErrBudget
	if err != nil && !budgetHit {
		return nil, err
	}
	r.verts = r.verts[:len(r.perfs)]
	for i, perf := range r.perfs {
		r.verts[i].perf = perf
	}
	if budgetHit || len(r.verts) < dim+1 {
		return r.finish("init_budget", 0, false), nil
	}
	r.sortVerts()
	r.clock = r.opts.startStall(r.ev, r.verts)
	return nil, nil
}

// better orders performances under the run's direction.
func (r *simplexRun) better(a, b float64) bool { return r.opts.Direction.Better(a, b) }

// sortVerts orders the simplex best to worst.
func (r *simplexRun) sortVerts() { sortVertices(r.verts, r.opts.Direction.Better) }

// finish records the kernel's termination decision and returns its result,
// which summarizes the evaluator's trace.
func (r *simplexRun) finish(reason string, iter int, converged bool) *Result {
	tr := r.ev.Trace()
	res := &Result{Trace: tr, Converged: converged}
	if len(tr) > 0 {
		best := tr.Best(r.opts.Direction)
		res.BestConfig, res.BestPerf, res.Evals = best.Config.Clone(), best.Perf, r.ev.Count()
	}
	emit(r.opts.Tracer, Event{
		Type: EventConverge, Op: reason, Iter: iter,
		Perf: res.BestPerf, Config: res.BestConfig,
		Detail: Note{Kind: NoteConverge, A: int32(res.Evals), B: int32(r.p), C: int32(r.clock.horizon), Flag: r.clock.confirmed},
	})
	return res
}

// step records one simplex operation for the tracer.
func (r *simplexRun) step(op string, iter int, perf float64, note string) {
	emit(r.opts.Tracer, Event{Type: EventSimplex, Op: op, Iter: iter, Perf: perf, Note: note})
}

// stepNote records one simplex operation with a typed note.
func (r *simplexRun) stepNote(op string, iter int, perf float64, kind NoteKind, n int) {
	emit(r.opts.Tracer, Event{Type: EventSimplex, Op: op, Iter: iter, Perf: perf, Detail: Note{Kind: kind, A: int32(n)}})
}

// centroidOf writes the centroid of the best keep vertices to r.centroid.
func (r *simplexRun) centroidOf(keep int) []float64 {
	centroid := r.centroid
	clear(centroid)
	for _, v := range r.verts[:keep] {
		for j := range centroid {
			centroid[j] += v.pt[j]
		}
	}
	for j := range centroid {
		centroid[j] /= float64(keep)
	}
	return centroid
}

// probe measures the candidate point pt, committing a speculated value
// when spec holds one; ok is false once the budget is spent.
func (r *simplexRun) probe(spec *Speculation, pt []float64) (float64, bool) {
	_, perf, err := r.ev.EvalSpeculated(pt, spec)
	if err != nil {
		return 0, false
	}
	return perf, true
}

// move writes the candidate centroid + coef*(centroid - from), clamped
// into the box, to dst.
func (r *simplexRun) move(dst, from []float64, coef float64) []float64 {
	for j := range dst {
		dst[j] = r.centroid[j] + coef*(r.centroid[j]-from[j])
	}
	return clampInto(r.space, dst, dst)
}

// accept replaces vertex i with the candidate pt, copying pt into the
// vertex's own buffer.
func (r *simplexRun) accept(i int, pt []float64, perf float64) {
	copy(r.verts[i].pt, pt)
	r.verts[i].perf = perf
}

// iterate runs one iteration, or ends the run: it returns the run's result
// when the run converged, stalled or spent its budget, and nil otherwise.
func (r *simplexRun) iterate(iter int) *Result {
	verts, opts := r.verts, r.opts
	// Convergence: relative spread between best and worst vertex.
	bestV, worstV := verts[0].perf, verts[len(verts)-1].perf
	spread := abs(bestV - worstV)
	scale := abs(bestV) + abs(worstV)
	if scale > 0 && spread/scale < opts.RelTol {
		return r.finish("reltol", iter, true)
	}
	if r.clock.expired() {
		return r.finish("stall", iter, true)
	}

	// Centroid of all but the worst vertex.
	r.centroidOf(len(verts) - 1)
	worst := verts[len(verts)-1]

	// All candidate points one iteration can probe are known before any
	// measurement: the reflection, the expansion, and both contractions.
	// With a parallel budget the kernel measures them speculatively as
	// one concurrent round, then commits only the ones the sequential
	// logic below actually probes — in the sequential order — so the
	// committed trace is identical to the sequential kernel's while the
	// iteration's wall-clock shrinks to one measurement round.
	refl := r.move(r.cands[0], worst.pt, opts.Reflection)
	exp := r.move(r.cands[1], worst.pt, opts.Reflection*opts.Expansion)
	contrOutPt := r.move(r.cands[2], worst.pt, opts.Reflection*opts.Contraction)
	contrInPt := r.move(r.cands[3], worst.pt, -opts.Contraction)
	var spec *Speculation
	if opts.Parallel > 1 {
		spec = r.ev.Speculate(r.cands, opts.Parallel)
	}

	// Reflection.
	rPerf, ok := r.probe(spec, refl)
	if !ok {
		return r.finish("budget", iter, false)
	}
	switch {
	case r.better(rPerf, verts[0].perf):
		// Expansion.
		r.step(OpReflect, iter, rPerf, "improved best; trying expansion")
		ePerf, ok := r.probe(spec, exp)
		if !ok {
			return r.finish("budget", iter, false)
		}
		if r.better(ePerf, rPerf) {
			r.step(OpExpand, iter, ePerf, "accepted")
			r.accept(len(verts)-1, exp, ePerf)
		} else {
			r.step(OpExpand, iter, ePerf, "rejected; kept reflection")
			r.accept(len(verts)-1, refl, rPerf)
		}
	case r.better(rPerf, verts[len(verts)-2].perf):
		// Better than the second-worst: accept the reflection.
		r.step(OpReflect, iter, rPerf, "accepted")
		r.accept(len(verts)-1, refl, rPerf)
	default:
		// Contraction (outside if the reflection improved on the worst,
		// inside otherwise).
		r.step(OpReflect, iter, rPerf, "rejected; contracting")
		contr, contrOp := contrInPt, OpContractIn
		if r.better(rPerf, worst.perf) {
			contr, contrOp = contrOutPt, OpContractOut
		}
		cPerf, ok := r.probe(spec, contr)
		if !ok {
			return r.finish("budget", iter, false)
		}
		if r.better(cPerf, worst.perf) {
			r.step(contrOp, iter, cPerf, "accepted")
			r.accept(len(verts)-1, contr, cPerf)
		} else if r.clock.confirmed {
			// A run whose start confirmed its prior ends at its first
			// failed contraction: on warm-web the shrinks of confirmed
			// runs cost 18.6% of the client's measurements and bought
			// about 0.1% of re-measured performance.
			r.step(contrOp, iter, cPerf, "rejected; prior confirmed")
			return r.finish("confirmed", iter, true)
		} else {
			r.step(contrOp, iter, cPerf, "rejected; shrinking")
			if !r.shrink(iter) {
				return r.finish("budget", iter, false)
			}
		}
	}
	r.sortVerts()
	r.clock.tick(verts[0].perf, 1, opts.Direction)
	return nil
}

// shrink moves every vertex but the best halfway (by the Shrink
// coefficient) toward it and re-measures them — an embarrassingly parallel
// batch. It reports false when the budget ran out.
func (r *simplexRun) shrink(iter int) bool {
	verts := r.verts
	bestPt := verts[0].pt
	r.batch = r.batch[:0]
	for i := 1; i < len(verts); i++ {
		for j := range verts[i].pt {
			verts[i].pt[j] = bestPt[j] + r.opts.Shrink*(verts[i].pt[j]-bestPt[j])
		}
		r.batch = append(r.batch, verts[i].pt)
	}
	var err error
	_, r.perfs, err = r.ev.evalBatch(r.batch, r.opts.Parallel, nil, r.perfs[:0])
	if err != nil || len(r.perfs) < len(r.batch) {
		return false
	}
	for i := 1; i < len(verts); i++ {
		verts[i].perf = r.perfs[i-1]
	}
	r.stepNote(OpShrink, iter, verts[0].perf, NoteShrink, len(r.batch))
	return true
}

// clampPoint returns pt clamped into the space's box.
func clampPoint(space *Space, pt []float64) []float64 {
	return clampInto(space, make([]float64, len(pt)), pt)
}

// clampInto writes pt clamped into the space's box to dst, which may be pt
// itself, and returns dst.
func clampInto(space *Space, dst, pt []float64) []float64 {
	for i, p := range space.Params {
		v := pt[i]
		if v < float64(p.Min) {
			v = float64(p.Min)
		}
		if v > float64(p.Max) {
			v = float64(p.Max)
		}
		dst[i] = v
	}
	return dst
}
