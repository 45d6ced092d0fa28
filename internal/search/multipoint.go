package search

// polishFrac is the simplex scale (fraction of each parameter's range) of
// the polish phase the multi-point kernel runs with leftover budget after
// its coarse walk converges.
const polishFrac = 0.25

// pbest resolves the effective multi-point width for one simplex iteration:
// how many of the worst vertices are updated concurrently. Sequential
// sessions always get 1. Parallel sessions default to Parallel/2 — each
// vertex consumes two concurrent measurement slots per round (its
// reflection and its inside contraction travel together), so Parallel/2
// vertices fill the window exactly — capped at dim/2 so the reflection
// centroid stays informative. PBest overrides the default: 1 forces the
// trajectory-preserving speculative kernel regardless of window width,
// larger values raise ambition up to the same dim/2 cap.
func (o NelderMeadOptions) pbest(dim int) int {
	if o.Parallel <= 1 {
		return 1
	}
	p := o.PBest
	if p == 0 {
		p = o.Parallel / 2
	}
	if p > dim/2 {
		p = dim / 2
	}
	if p > o.Parallel {
		p = o.Parallel
	}
	if p < 1 {
		p = 1
	}
	return p
}

// nelderMeadMultiPoint is the multi-point parallel simplex (after Lee &
// Wiswall's p-best scheme): each iteration updates the p worst vertices
// concurrently, and — unlike the textbook two-round formulation — measures
// each vertex's reflection AND its inside contraction together in a single
// EvalBatch round. Both candidates are computable from the committed
// simplex before any measurement starts (the contraction does not depend
// on the reflection's outcome, only the choice between them does), so one
// round of 2p concurrent measurements replaces the reflect-then-
// maybe-contract sequence that would otherwise serialize two measurement
// latencies per iteration. Each vertex then takes its reflection when that
// beats the vertex, else its contraction when that does, else keeps its
// place; if no vertex improved the whole simplex shrinks toward the best
// point (one more concurrent batch), mirroring the sequential kernel's
// shrink rule — and, like that kernel, a walk whose start confirmed its
// prior (see NelderMeadOptions.PriorBest) ends at such a round instead of
// shrinking: on warm-web the shrinks of confirmed runs cost 18.6% of the
// client's measurements and bought about 0.1% of re-measured performance.
// The simplex re-sorts after every round, so each round's centroid reflects
// all previously committed progress.
//
// The coarse parallel walk trades the sequential kernel's expansion trial
// for round economy, so it converges in fewer, wider steps; whatever
// evaluation budget is left at convergence funds a polish phase — a
// reduced-scale restart on the trajectory-preserving speculative kernel,
// centred on the incumbent best — which recovers the fine local refinement
// the wide walk skips. Only a walk whose start did not confirm a prior
// polishes (see NelderMeadOptions.PriorBest): a confirmed walk has already
// reached the answer the prior recorded, and on hyperband-json its polishes
// took a third of each session's measurement-seconds while raising the
// session's best in 4 of 104 sessions, by 0.02% on average.
//
// The stall horizon (see NelderMeadOptions.MaxStall) counts vertex
// updates, and a round counts p of them, so the walk stops after ⌈h/p⌉
// rounds without a new best where the sequential kernel stops after h
// iterations. Counted in rounds, a confirmed window-4 walk waited out its
// horizon of 4 with 16 client measurements, against 4–8 on the sequential
// kernel; on hyperband-json 90 of 110 warm sessions ended that way, having
// almost never beaten their start.
//
// Wall-clock per unit of simplex progress drops by roughly p for
// measurement-bound objectives — a round costs one measurement latency and
// commits up to p vertex updates — which is what a pipelined session with a
// wide window buys. The trajectory differs from the sequential kernel's (a
// different — more parallel — walk over the same surface) but is fully
// deterministic for a given width: EvalBatch commits and traces in input
// order, every decision derives from committed values, and the candidate
// order within a round is fixed (worst vertex first, reflection before
// contraction). Narrow spaces never take this path — pbest caps the width
// at dim/2, so 2- and 3-dimensional sessions fall back to the speculative
// kernel whose results are identical to sequential.
func nelderMeadMultiPoint(space *Space, ev *Evaluator, opts NelderMeadOptions, p int) (*Result, error) {
	dim := space.Dim()
	dir := opts.Direction
	better := dir.Better

	// Candidate 2j is the j-th worst vertex's reflection, 2j+1 its inside
	// contraction.
	r := newSimplexRun(space, ev, opts, p, 2*p)
	if res, err := r.start(); res != nil || err != nil {
		return res, err
	}
	verts := r.verts

	// converge ends the coarse walk. Leftover budget — the wide walk
	// typically converges in fewer evaluations than the sequential kernel
	// spends — funds a polish restart on the speculative kernel at reduced
	// scale around the incumbent best, unless the walk's start confirmed
	// its prior: then the walk's convergence ends the run. Its reduced
	// simplex leaves the incumbent out, so it rarely comes near a best the
	// prior already confirmed.
	converge := func(reason string, iter int) (*Result, error) {
		res := r.finish(reason, iter, true)
		if r.clock.confirmed || ev.MaxEvals <= 0 || len(res.BestConfig) == 0 {
			return res, nil
		}
		remaining := ev.MaxEvals - ev.Count()
		if remaining < dim+1 {
			return res, nil
		}
		emit(opts.Tracer, Event{
			Type: EventPhase, Op: "polish", Iter: iter, Perf: res.BestPerf,
			Detail: Note{Kind: NotePolish, A: int32(remaining)},
		})
		polishOpts := opts
		polishOpts.PBest = 1 // trajectory-preserving speculative kernel
		polishOpts.Init = ScaledInit{Center: space.Continuous(res.BestConfig), Frac: polishFrac}
		pres, err := nelderMead(space, ev, polishOpts)
		if err != nil {
			return nil, err
		}
		// The coarse walk converged; the polish merely spends what was
		// left, so running out of budget mid-polish is still convergence.
		pres.Converged = true
		return pres, nil
	}

	for iter := 0; ; iter++ {
		bestV, worstV := verts[0].perf, verts[len(verts)-1].perf
		spread := abs(bestV - worstV)
		scale := abs(bestV) + abs(worstV)
		if scale > 0 && spread/scale < opts.RelTol {
			return converge("reltol", iter)
		}
		if r.clock.expired() {
			return converge("stall", iter)
		}

		// Centroid of everything except the p vertices being updated.
		r.centroidOf(len(verts) - p)

		// One concurrent round measures every candidate the iteration can
		// commit: the reflection and the inside contraction of each of the
		// p worst vertices, in a fixed order (worst first, reflection
		// before contraction) so the committed trace is deterministic.
		for j := 0; j < p; j++ {
			w := verts[len(verts)-1-j]
			r.move(r.cands[2*j], w.pt, opts.Reflection)
			r.move(r.cands[2*j+1], w.pt, -opts.Contraction)
		}
		var err error
		_, r.perfs, err = ev.evalBatch(r.cands, opts.Parallel, nil, r.perfs[:0])
		if err != nil || len(r.perfs) < len(r.cands) {
			return r.finish("budget", iter, false), nil
		}

		// Commit the p updates: reflection if it beats the vertex, else
		// contraction if that does, else the vertex stays.
		improved := false
		for j := 0; j < p; j++ {
			idx := len(verts) - 1 - j
			w := verts[idx]
			rPerf, cPerf := r.perfs[2*j], r.perfs[2*j+1]
			switch {
			case better(rPerf, w.perf):
				r.stepNote(OpReflect, iter, rPerf, NoteVertexAccepted, idx)
				r.accept(idx, r.cands[2*j], rPerf)
				improved = true
			case better(cPerf, w.perf):
				r.stepNote(OpContractIn, iter, cPerf, NoteVertexAccepted, idx)
				r.accept(idx, r.cands[2*j+1], cPerf)
				improved = true
			default:
				r.stepNote(OpContractIn, iter, cPerf, NoteVertexRejected, idx)
			}
		}

		if !improved {
			// Every update failed. A walk whose start confirmed its prior
			// ends here, as the sequential kernel does at a failed
			// contraction; any other walk shrinks the whole simplex toward
			// the best vertex — one more concurrent batch.
			if r.clock.confirmed {
				return converge("confirmed", iter)
			}
			if !r.shrink(iter) {
				return r.finish("budget", iter, false), nil
			}
		}

		r.sortVerts()
		r.clock.tick(verts[0].perf, p, dir)
	}
}
