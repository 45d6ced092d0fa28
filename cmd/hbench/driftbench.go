package main

import (
	"fmt"

	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

// driftBenchReport is the BENCH_drift.json artifact: repeated workload-drift
// episodes on the simulated web cluster, each recovered three ways.
// Regenerate with:
//
//	hbench -drift-bench > BENCH_drift.json
//
// The scenario, per episode: a session tunes the ten-parameter cluster
// under the TPC-W browsing mix, the mix ramps into ordering on the
// measurement-time axis (the virtual clock every measurement advances),
// and the question is how much measurement time each recovery policy
// spends before it is back within 2% of the post-drift optimum:
//
//   - no-retune: keep serving the pre-drift best (the paper's baseline —
//     classify once at registration, never look again);
//   - cold-restart: throw the session away and tune the new workload from
//     scratch, the way a nightly re-tune would;
//   - warm-retune: the continuous-tuning path — the incumbent best kept as
//     a simplex vertex with a reduced-scale simplex re-expanded around it,
//     a variant of the re-tune the server's drift detector funds
//     in-session.
//
// Single episodes are noisy (recovery is a first-passage time), so the
// committed comparison is the mean over several independently-seeded
// episodes. Everything is deterministic in -seed (content-derived
// measurement variation, seeded surfaces), so the recovery times are
// reproducible; only wall-clock varies.
type driftBenchReport struct {
	Bench      string     `json:"bench"`
	Provenance provenance `json:"provenance"`
	Seed       uint64     `json:"seed"`
	// CostSeconds is the virtual measurement cost: every objective call
	// advances the workload clock by this many seconds.
	CostSeconds float64 `json:"cost_seconds"`
	// PhaseAEvals is the pre-drift tuning budget; the drift ramp starts the
	// moment it is spent, so phase A is entirely stationary.
	PhaseAEvals int     `json:"phase_a_evals"`
	RampSeconds float64 `json:"ramp_seconds"`
	// DetectLagSeconds charges every recovery policy the same observation
	// lag: the ramp plus the drift detector's hysteresis window riding the
	// EWMA off the old centroid. Policies differ only after detection.
	DetectLagSeconds float64 `json:"detect_lag_seconds"`
	// Budget is the post-detection measurement allowance per policy;
	// episodes that never reach the band are charged all of it.
	Budget   int            `json:"budget"`
	Episodes []driftEpisode `json:"episodes"`
	// Aggregate is the per-strategy mean over the episodes — the figures
	// the CI thresholds check.
	Aggregate []driftAggregate `json:"aggregate"`
	// WarmVsColdSaving is 1 − warm/cold mean recovery measurement-seconds:
	// the fraction of the cold restart's re-tuning time the warm path
	// saves.
	WarmVsColdSaving float64 `json:"warm_vs_cold_saving"`
	// StationaryIdentical asserts the drift machinery's no-op guarantee: a
	// session tuning against Stationary(browsing) through the schedule
	// objective walks the exact trajectory of the plain stationary
	// objective.
	StationaryIdentical bool `json:"stationary_identical"`
}

// driftEpisode is one drift event: its own cluster surfaces (seeded), its
// own post-drift optimum, and the three policies' outcomes against it.
type driftEpisode struct {
	Seed uint64 `json:"seed"`
	// PostDriftOptimum is the truth WIPS of a generous direct tune on the
	// final mix; RecoverTarget is 98% of it.
	PostDriftOptimum float64         `json:"post_drift_optimum"`
	RecoverTarget    float64         `json:"recover_target"`
	PreDriftBest     float64         `json:"pre_drift_best"`
	Strategies       []driftStrategy `json:"strategies"`
}

// driftStrategy is one recovery policy's outcome in one episode.
type driftStrategy struct {
	Strategy string `json:"strategy"` // no-retune | cold-restart | warm-retune
	// Evals is how many post-detection measurements the policy spent.
	Evals int `json:"evals"`
	// BestPerf is the best truth performance the policy holds on the
	// post-drift workload; BestFrac is its fraction of the optimum.
	BestPerf float64 `json:"best_perf"`
	BestFrac float64 `json:"best_frac"`
	// Recovered reports whether the policy ever reached the 2% band;
	// RecoverSeconds is the measurement-seconds from detection until it
	// did (-1 when it never did).
	Recovered      bool    `json:"recovered"`
	RecoverSeconds float64 `json:"recover_seconds"`
}

// driftAggregate is one policy's mean outcome across the episodes.
type driftAggregate struct {
	Strategy string `json:"strategy"`
	// RecoveredEpisodes counts episodes that reached the 2% band.
	RecoveredEpisodes int `json:"recovered_episodes"`
	// MeanRecoverSeconds averages the recovery times, charging episodes
	// that never recovered the full post-detection budget (a lower bound
	// on their true cost).
	MeanRecoverSeconds float64 `json:"mean_recover_seconds"`
	MeanBestFrac       float64 `json:"mean_best_frac"`
}

// warmRetuneInit is the bench's warm re-tune simplex: the incumbent best
// is kept as the first simplex vertex (the session already holds its
// post-drift measurement) and the remaining vertices form a distributed
// simplex spanning frac of each parameter's range around it. It differs
// from the server's in-session re-tune, whose search.ScaledInit simplex
// (frac 0.5, halving per re-tune) is centred on the incumbent but, for
// dim >= 2, has no vertex at it; the bench runs frac 0.35.
type warmRetuneInit struct {
	center []float64
	frac   float64
}

// Name implements search.InitStrategy.
func (w warmRetuneInit) Name() string { return "warm-retune" }

// Initial implements search.InitStrategy.
func (w warmRetuneInit) Initial(space *search.Space) [][]float64 {
	dim := space.Dim()
	n := dim + 1
	pts := make([][]float64, n)
	pts[0] = append([]float64(nil), w.center...)
	for i := 1; i < n; i++ {
		v := make([]float64, dim)
		for j, p := range space.Params {
			span := float64(p.Max-p.Min) * w.frac
			offset := (float64((i+j)%n)+0.5)/float64(n) - 0.5
			x := w.center[j] + span*offset
			if x < float64(p.Min) {
				x = float64(p.Min)
			}
			if x > float64(p.Max) {
				x = float64(p.Max)
			}
			v[j] = x
		}
		pts[i] = v
	}
	return pts
}

// driftBenchEpisodes is how many independently-seeded drift events the
// bench averages over.
const driftBenchEpisodes = 6

// driftBench runs the drift-recovery comparison and writes BENCH_drift.json
// on stdout. budget is the post-detection measurement allowance per policy.
func driftBench(rt *obs.Runtime, seed uint64, budget int) error {
	const cost = 60.0 // one measurement = one minute of workload time
	space := webservice.Space()
	dim := space.Dim()

	phaseA := 5 * (dim + 1) // enough for the simplex to converge pre-drift
	driftAt := float64(phaseA) * cost
	ramp := 2 * cost
	detectLag := ramp + 3*cost // the detector's hysteresis window (3 obs) past the ramp

	rep := driftBenchReport{
		Bench: "drift", Provenance: newProvenance(), Seed: seed,
		CostSeconds: cost, PhaseAEvals: phaseA,
		RampSeconds: ramp, DetectLagSeconds: detectLag,
		Budget: budget,
	}

	type sums struct {
		recovered int
		seconds   float64
		frac      float64
	}
	agg := map[string]*sums{}
	order := []string{"no-retune", "cold-restart", "warm-retune"}
	for _, name := range order {
		agg[name] = &sums{}
	}

	for e := 0; e < driftBenchEpisodes; e++ {
		epSeed := seed + 9173*uint64(e)
		ep, err := driftEpisodeRun(space, epSeed, budget, cost, driftAt, ramp, detectLag, phaseA)
		if err != nil {
			return fmt.Errorf("drift bench: episode %d: %w", e, err)
		}
		rep.Episodes = append(rep.Episodes, ep)
		for _, s := range ep.Strategies {
			a := agg[s.Strategy]
			a.frac += s.BestFrac
			if s.Recovered {
				a.recovered++
				a.seconds += s.RecoverSeconds
			} else {
				a.seconds += float64(budget) * cost
			}
		}
		rt.Logger.Info("drift episode complete", "episode", e, "seed", epSeed,
			"held_frac", fmt.Sprintf("%.3f", ep.Strategies[0].BestFrac),
			"cold_s", ep.Strategies[1].RecoverSeconds,
			"warm_s", ep.Strategies[2].RecoverSeconds)
	}

	n := float64(driftBenchEpisodes)
	for _, name := range order {
		a := agg[name]
		rep.Aggregate = append(rep.Aggregate, driftAggregate{
			Strategy:           name,
			RecoveredEpisodes:  a.recovered,
			MeanRecoverSeconds: a.seconds / n,
			MeanBestFrac:       a.frac / n,
		})
	}
	cold, warm := agg["cold-restart"], agg["warm-retune"]
	if cold.seconds > 0 {
		rep.WarmVsColdSaving = 1 - warm.seconds/cold.seconds
	}

	// The no-op guarantee: the schedule objective over a stationary
	// schedule must walk the plain stationary objective's exact trajectory.
	cluster := webservice.NewCluster(webservice.Options{Duration: cost, Warmup: 8, Seed: seed + 1})
	ident, err := stationaryIdentical(cluster, space)
	if err != nil {
		return fmt.Errorf("drift bench: stationary identity check: %w", err)
	}
	rep.StationaryIdentical = ident

	rt.Logger.Info("drift bench complete",
		"episodes", driftBenchEpisodes,
		"cold_mean_s", fmt.Sprintf("%.0f", cold.seconds/n),
		"warm_mean_s", fmt.Sprintf("%.0f", warm.seconds/n),
		"saving", fmt.Sprintf("%.3f", rep.WarmVsColdSaving),
		"stationary_identical", ident)

	return writeReport(rep)
}

// driftEpisodeRun plays one drift event and measures all three recovery
// policies against it.
func driftEpisodeRun(space *search.Space, seed uint64, budget int, cost, driftAt, ramp, detectLag float64, phaseA int) (driftEpisode, error) {
	cluster := webservice.NewCluster(webservice.Options{Duration: cost, Warmup: 8, Seed: seed + 1})
	tDetect := driftAt + detectLag
	sched := &tpcw.Schedule{Segments: []tpcw.Segment{
		{Mix: tpcw.Browsing},
		{Mix: tpcw.Ordering, Start: driftAt, Ramp: ramp},
	}}

	// The post-drift optimum: a generous direct tune on the final mix, the
	// yardstick every policy's recovery is measured against.
	ordering := cluster.ObjectiveStable(tpcw.Ordering)
	postRes, err := search.NelderMead(space, ordering, search.NelderMeadOptions{
		Direction: search.Maximize, MaxEvals: 4 * budget,
		Init: search.DistributedInit{}, Restarts: 2,
	})
	if err != nil {
		return driftEpisode{}, fmt.Errorf("post-drift optimum tune: %w", err)
	}
	postOpt := postRes.BestPerf
	target := 0.98 * postOpt

	// Phase A, shared by every policy: tune the stationary browsing phase
	// on the schedule's own clock. The budget spends exactly up to the
	// drift boundary.
	clockA := webservice.NewMeasureClock(0, cost)
	resA, err := search.NelderMead(space, cluster.ScheduleObjective(sched, clockA), search.NelderMeadOptions{
		Direction: search.Maximize, MaxEvals: phaseA, Init: search.DistributedInit{},
	})
	if err != nil {
		return driftEpisode{}, fmt.Errorf("phase A tune: %w", err)
	}
	bestA := resA.BestConfig

	// retune runs one post-detection policy: a fresh kernel from init on
	// the drifted schedule, tracking when a measurement first reaches the
	// recovery band. Past the ramp the schedule is stationary on the final
	// mix, so the measured performance is the truth performance.
	retune := func(init search.InitStrategy) (driftStrategy, error) {
		clock := webservice.NewMeasureClock(tDetect, cost)
		inner := cluster.ScheduleObjective(sched, clock)
		evals, recoverAt := 0, -1
		obj := search.ObjectiveFunc(func(cfg search.Config) float64 {
			perf := inner.Measure(cfg)
			evals++
			if recoverAt < 0 && perf >= target {
				recoverAt = evals
			}
			return perf
		})
		res, err := search.NelderMead(space, obj, search.NelderMeadOptions{
			Direction: search.Maximize, MaxEvals: budget, Init: init,
		})
		if err != nil {
			return driftStrategy{}, err
		}
		s := driftStrategy{
			Evals:          evals,
			BestPerf:       res.BestPerf,
			BestFrac:       res.BestPerf / postOpt,
			Recovered:      recoverAt >= 0,
			RecoverSeconds: -1,
		}
		if recoverAt >= 0 {
			s.RecoverSeconds = float64(recoverAt) * cost
		}
		return s, nil
	}

	// no-retune: hold the pre-drift best forever.
	held := ordering.Measure(bestA)
	noRetune := driftStrategy{
		Strategy: "no-retune", Evals: 0,
		BestPerf: held, BestFrac: held / postOpt,
		Recovered: held >= target, RecoverSeconds: -1,
	}
	if noRetune.Recovered {
		noRetune.RecoverSeconds = 0
	}

	cold, err := retune(search.DistributedInit{})
	if err != nil {
		return driftEpisode{}, fmt.Errorf("cold restart: %w", err)
	}
	cold.Strategy = "cold-restart"

	warm, err := retune(warmRetuneInit{center: space.Continuous(bestA), frac: 0.35})
	if err != nil {
		return driftEpisode{}, fmt.Errorf("warm re-tune: %w", err)
	}
	warm.Strategy = "warm-retune"

	return driftEpisode{
		Seed:             seed,
		PostDriftOptimum: postOpt,
		RecoverTarget:    target,
		PreDriftBest:     resA.BestPerf,
		Strategies:       []driftStrategy{noRetune, cold, warm},
	}, nil
}

// stationaryIdentical tunes the browsing mix twice — through the drift
// machinery with a Stationary schedule, and through the plain stationary
// objective — and reports whether the trajectories are bit-identical.
func stationaryIdentical(cluster *webservice.Cluster, space *search.Space) (bool, error) {
	opts := search.NelderMeadOptions{
		Direction: search.Maximize, MaxEvals: 40, Init: search.DistributedInit{},
	}
	clock := webservice.NewMeasureClock(0, 60)
	viaSched, err := search.NelderMead(space,
		cluster.ScheduleObjective(tpcw.Stationary(tpcw.Browsing), clock), opts)
	if err != nil {
		return false, err
	}
	plain, err := search.NelderMead(space, cluster.ObjectiveStable(tpcw.Browsing), opts)
	if err != nil {
		return false, err
	}
	if len(viaSched.Trace) != len(plain.Trace) {
		return false, nil
	}
	for i := range viaSched.Trace {
		a, b := viaSched.Trace[i], plain.Trace[i]
		if a.Perf != b.Perf || !a.Config.Equal(b.Config) {
			return false, nil
		}
	}
	return true, nil
}
