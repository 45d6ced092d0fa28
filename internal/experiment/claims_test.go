package experiment

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"harmony/internal/core"
	"harmony/internal/evalcache"
	"harmony/internal/mfsearch"
	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

// The tests in this file pin three claims about reusing what earlier runs
// measured, each on the ten-parameter web cluster with seed 0 and a budget
// of 120 evaluations: the measure-once layer, the prior-seeded Hyperband
// kernel, and the in-session warm re-tune after workload drift.

const claimBudget = 120

// claimCluster is the simulated web cluster every claim measures: a 60-s
// horizon with an 8-s warmup, surfaces seeded from seed.
func claimCluster(seed uint64) *webservice.Cluster {
	return webservice.NewCluster(webservice.Options{Duration: 60, Warmup: 8, Seed: seed + 1})
}

// TestEvalCacheClaim runs one repeat-tuning schedule (the same application
// re-tuned across restarts: two exact repeats, one run with the extreme
// initial simplex, one more repeat) three times: with no measure-once layer,
// with an exact cache, and with an exact cache behind the estimation gate.
// Exact caching must cut real measurements by a quarter without moving the
// committed count or any session's best, and a gated session must report
// only measured bests.
func TestEvalCacheClaim(t *testing.T) {
	space := webservice.Space()
	truth := claimCluster(0).ObjectiveStable(tpcw.Ordering)
	base := core.Options{Direction: search.Maximize, MaxEvals: claimBudget, Improved: true}
	extreme := base
	extreme.Improved = false
	schedule := []core.Options{base, base, extreme, base}

	type outcome struct {
		requested, measured int
		bests, truths       []float64
		metrics             *evalcache.Metrics
	}
	run := func(mode string) outcome {
		t.Helper()
		var measured atomic.Int64
		obj := search.ObjectiveFunc(func(cfg search.Config) float64 {
			measured.Add(1)
			return truth.Measure(cfg)
		})
		metrics := evalcache.NewMetrics(obs.NewRegistry())
		var layer *evalcache.Layer
		switch mode {
		case "exact":
			layer = &evalcache.Layer{Cache: evalcache.New(0, 0, metrics)}
		case "gated":
			// The default gate bounds suit low-dimensional spaces; in ten
			// dimensions the nearest dim+1 vertices rarely sit within the
			// default radius, so the bounds open to let the gate answer.
			layer = &evalcache.Layer{
				Cache: evalcache.New(0, 0, metrics),
				Gate: evalcache.NewGate(space, evalcache.GateOptions{
					MaxVertexDist: 0.45, MaxRelResidual: 0.10,
				}, metrics),
				TruthCheckEvery: 16,
			}
		}
		out := outcome{metrics: metrics}
		for _, opts := range schedule {
			if layer != nil {
				opts.External = layer
			}
			sess, err := core.New(space, obj).Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			out.requested += sess.Result.Evals
			out.bests = append(out.bests, sess.Result.BestPerf)
			out.truths = append(out.truths, truth.Measure(sess.FullBest))
		}
		out.measured = int(measured.Load())
		return out
	}
	saved := func(o outcome) float64 { return 1 - float64(o.measured)/float64(o.requested) }

	off, exact, gated := run("off"), run("exact"), run("gated")
	t.Logf("exact: %d requested, %d measured, saved %.3f; gated saved %.3f with %d estimates",
		exact.requested, exact.measured, saved(exact), saved(gated), gated.metrics.Estimated.Value())

	if exact.metrics.Hits.Value() == 0 {
		t.Error("exact mode recorded no cache hits")
	}
	if s := saved(exact); s < 0.25 {
		t.Errorf("exact mode saved %.3f of measurements, want >= 0.25", s)
	}
	if exact.requested != off.requested {
		t.Errorf("caching changed the committed evaluation count: %d, off mode %d", exact.requested, off.requested)
	}
	if !slices.Equal(exact.bests, off.bests) {
		t.Errorf("exact caching moved a session's best: %v, off mode %v", exact.bests, off.bests)
	}
	if exact.metrics.SavedSeconds.Value() <= 0 {
		t.Error("exact mode reported no saved measurement time")
	}
	if gated.metrics.Estimated.Value() == 0 {
		t.Error("the gate answered nothing")
	}
	if !slices.Equal(gated.bests, gated.truths) {
		t.Errorf("gated mode reported estimated bests %v, truths %v", gated.bests, gated.truths)
	}
}

// TestFidelityClaim tunes the cluster's ordering mix twice on the same
// budget, which each run's Evaluator holds: a cold full-fidelity simplex,
// then Hyperband seeded with the dim+1 best distinct configurations of the
// first run, as a prior session would have deposited them. Hyperband must save at least 30% of the measurement-seconds at a
// best no more than 2% worse, and report a best measured at full fidelity.
func TestFidelityClaim(t *testing.T) {
	const seed = 0
	const duration, warmup = 60.0, 8.0
	space := webservice.Space()
	obj := claimCluster(seed).ObjectiveStableAt(tpcw.Ordering)
	dir := search.Maximize

	// seconds prices a trace under the cluster's fidelity cost model: a full
	// measurement costs the horizon, a fidelity-f one the whole warmup plus
	// f of the rest, and an estimate nothing.
	seconds := func(tr search.Trace) float64 {
		var s float64
		for _, e := range tr {
			switch {
			case e.Estimated:
			case search.FullFidelity(e.Fidelity):
				s += duration
			default:
				s += warmup + (duration-warmup)*e.Fidelity
			}
		}
		return s
	}

	evBase := search.NewEvaluator(space, obj)
	evBase.MaxEvals = claimBudget
	resBase, err := search.NelderMeadWithEvaluator(space, evBase, search.NelderMeadOptions{
		Init: search.DistributedInit{}, Direction: dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The prior: the baseline's best distinct measured configurations,
	// ranked by a stable sort, so tied records keep their oldest-first
	// order. history.Experience.Seeds breaks ties newest first, and on
	// this trace that swaps two tied records and the claim no longer
	// holds (EXPERIMENTS.md).
	ranked := append(search.Trace(nil), evBase.Trace().Measured()...)
	sort.SliceStable(ranked, func(i, j int) bool { return dir.Better(ranked[i].Perf, ranked[j].Perf) })
	var priorCfgs []search.Config
	seen := map[string]bool{}
	for _, e := range ranked {
		if len(priorCfgs) == space.Dim()+1 {
			break
		}
		if k := e.Config.Key(); !seen[k] {
			seen[k] = true
			priorCfgs = append(priorCfgs, e.Config)
		}
	}

	evHB := search.NewEvaluator(space, obj)
	evHB.MaxEvals = claimBudget
	promotions := 0
	resHB, err := mfsearch.Run(space, evHB, mfsearch.NewPrior(space, priorCfgs), mfsearch.Options{
		Direction: dir,
		Seed:      seed + 11,
		// The polish starts from triage-vetted incumbents, so it gives up
		// after fewer updates without progress than a cold walk.
		Polish: search.NelderMeadOptions{MaxStall: 2 * space.Dim()},
		Tracer: search.TracerFunc(func(e search.Event) {
			if e.Type == search.EventRung && e.Op == "promote" {
				promotions++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	lowFi := 0
	for _, e := range evHB.Trace() {
		if !e.Estimated && !search.FullFidelity(e.Fidelity) {
			lowFi++
		}
	}

	hbTruth := obj.MeasureAt(resHB.BestConfig, 1)
	saved := 1 - seconds(evHB.Trace())/seconds(evBase.Trace())
	gap := (resBase.BestPerf - hbTruth) / resBase.BestPerf
	t.Logf("saved %.3f of measurement-seconds, gap %+.4f, %d low-fidelity evaluations, %d promotions",
		saved, gap, lowFi, promotions)

	if saved < 0.30 {
		t.Errorf("saved %.3f of measurement-seconds, want >= 0.30", saved)
	}
	if gap > 0.02 {
		t.Errorf("best gap %.4f, want <= 0.02", gap)
	}
	if lowFi == 0 {
		t.Error("no reduced-fidelity triage ran")
	}
	if promotions == 0 {
		t.Error("no rung promotions")
	}
	if resHB.BestPerf != hbTruth {
		t.Errorf("Hyperband's best %v is not its full-fidelity truth %v", resHB.BestPerf, hbTruth)
	}
}

// TestDriftClaim plays drift episodes on the cluster: a session tunes the
// browsing mix, the mix ramps into ordering on the measurement clock, and
// each recovery policy is charged the measurement-seconds it spends after
// detection before a measurement reaches 98% of the post-drift optimum.
// The warm arm starts from the daemon's first in-session re-tune simplex,
// centred on the incumbent.
func TestDriftClaim(t *testing.T) {
	const (
		seed     = 0
		episodes = 6
		cost     = 60.0 // one measurement is one minute of workload time
	)
	space := webservice.Space()

	t.Run("warm-retune", func(t *testing.T) {
		phaseA := 5 * (space.Dim() + 1) // enough for the simplex to converge before the drift
		driftAt := float64(phaseA) * cost
		ramp := 2 * cost
		tDetect := driftAt + ramp + 3*cost // the ramp plus the detector's 3-observation hysteresis
		sched := &tpcw.Schedule{Segments: []tpcw.Segment{
			{Mix: tpcw.Browsing},
			{Mix: tpcw.Ordering, Start: driftAt, Ramp: ramp},
		}}

		var coldSeconds, warmSeconds, heldFrac float64
		warmRecovered := 0
		for e := 0; e < episodes; e++ {
			cluster := claimCluster(seed + 9173*uint64(e))
			ordering := cluster.ObjectiveStable(tpcw.Ordering)
			post, err := search.NelderMead(space, ordering, search.NelderMeadOptions{
				Direction: search.Maximize, MaxEvals: 4 * claimBudget,
				Init: search.DistributedInit{}, Restarts: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			target := 0.98 * post.BestPerf

			resA, err := search.NelderMead(space, cluster.ScheduleObjective(sched, webservice.NewMeasureClock(0, cost)),
				search.NelderMeadOptions{Direction: search.Maximize, MaxEvals: phaseA, Init: search.DistributedInit{}})
			if err != nil {
				t.Fatal(err)
			}
			heldFrac += ordering.Measure(resA.BestConfig) / post.BestPerf

			// recoverFrom re-tunes from init on the drifted schedule and returns
			// the measurement-seconds until a measurement first reached the
			// target, or the whole budget's when none did.
			recoverFrom := func(init search.InitStrategy) (float64, bool) {
				inner := cluster.ScheduleObjective(sched, webservice.NewMeasureClock(tDetect, cost))
				evals, at := 0, 0
				obj := search.ObjectiveFunc(func(cfg search.Config) float64 {
					perf := inner.Measure(cfg)
					if evals++; at == 0 && perf >= target {
						at = evals
					}
					return perf
				})
				if _, err := search.NelderMead(space, obj, search.NelderMeadOptions{
					Direction: search.Maximize, MaxEvals: claimBudget, Init: init,
				}); err != nil {
					t.Fatal(err)
				}
				if at == 0 {
					return claimBudget * cost, false
				}
				return float64(at) * cost, true
			}
			cold, _ := recoverFrom(search.DistributedInit{})
			warm, ok := recoverFrom(search.ScaledInit{Center: space.Continuous(resA.BestConfig), Frac: 0.5})
			coldSeconds += cold
			warmSeconds += warm
			if ok {
				warmRecovered++
			}
		}

		saving := 1 - warmSeconds/coldSeconds
		held := heldFrac / episodes
		t.Logf("warm %.0f s vs cold %.0f s (saving %.3f), warm recovered %d/%d, no-retune held %.3f of the optimum",
			warmSeconds/episodes, coldSeconds/episodes, saving, warmRecovered, episodes, held)
		if warmRecovered != episodes {
			t.Errorf("warm re-tune recovered in %d of %d episodes", warmRecovered, episodes)
		}
		if saving < 0.25 {
			t.Errorf("warm re-tune saved %.3f of the cold restart's measurement-seconds, want >= 0.25", saving)
		}
		if held >= 0.98 {
			t.Errorf("no-retune held %.3f of the optimum: the drift is too mild to measure recovery", held)
		}
	})

	// A schedule that never drifts must walk the exact trajectory of the
	// plain stationary objective.
	t.Run("stationary-identical", func(t *testing.T) {
		cluster := claimCluster(seed)
		opts := search.NelderMeadOptions{Direction: search.Maximize, MaxEvals: 40, Init: search.DistributedInit{}}
		viaSched, err := search.NelderMead(space,
			cluster.ScheduleObjective(tpcw.Stationary(tpcw.Browsing), webservice.NewMeasureClock(0, cost)), opts)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := search.NelderMead(space, cluster.ObjectiveStable(tpcw.Browsing), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaSched.Trace) != len(plain.Trace) {
			t.Fatalf("trajectory lengths differ: %d via the schedule, %d plain", len(viaSched.Trace), len(plain.Trace))
		}
		for i := range plain.Trace {
			a, b := viaSched.Trace[i], plain.Trace[i]
			if a.Perf != b.Perf || !a.Config.Equal(b.Config) {
				t.Fatalf("trajectories diverge at evaluation %d: %v = %v via the schedule, %v = %v plain",
					i, a.Config, a.Perf, b.Config, b.Perf)
			}
		}
	})
}
