package main

import (
	"fmt"
	"sort"
	"time"

	"harmony/internal/mfsearch"
	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

// fidelityBenchReport is the BENCH_fidelity.json artifact: the ten-parameter
// web cluster tuned by the full-fidelity simplex (the cold baseline) and by
// the prior-seeded Hyperband kernel, with the simulated measurement seconds
// each kernel spent. Regenerate with:
//
//	hbench -fidelity-bench -workload ordering > BENCH_fidelity.json
//
// Measurement cost follows the cluster's fidelity model: a full measurement
// occupies the whole horizon (Duration seconds), a fidelity-f one only
// Warmup + (Duration−Warmup)·f — the warmup always runs in full. The
// schedule is deterministic for a given -seed, so everything but the
// wall-clock field reproduces exactly.
type fidelityBenchReport struct {
	Bench      string     `json:"bench"`
	Provenance provenance `json:"provenance"`
	Target     string     `json:"target"`
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Budget     int        `json:"budget"`
	DurationS  float64    `json:"duration_s"`
	WarmupS    float64    `json:"warmup_s"`

	Baseline  fidelityBenchArm `json:"baseline"`
	Hyperband fidelityBenchArm `json:"hyperband"`

	// SavedSecondsFrac is 1 − hyperband/baseline measurement seconds: the
	// fraction of simulated benchmark time multi-fidelity triage saved.
	SavedSecondsFrac float64 `json:"saved_seconds_frac"`
	// BestGapFrac is (baseline best − hyperband true best) / baseline
	// best: how much final quality the saving cost (negative = hyperband
	// found a better point).
	BestGapFrac float64 `json:"best_gap_frac"`
}

// fidelityBenchArm is one kernel's outcome.
type fidelityBenchArm struct {
	Kernel string `json:"kernel"` // simplex | hyperband
	// Evals counts committed evaluations; LowFidelityEvals the subset
	// measured at a partial fidelity (zero for the baseline).
	Evals            int `json:"evals"`
	LowFidelityEvals int `json:"low_fidelity_evals,omitempty"`
	// BestPerf is the kernel's own answer; BestTruePerf re-measures the
	// best configuration at full fidelity (identical for deterministic
	// full-fidelity kernels — the honesty check).
	BestPerf     float64 `json:"best_perf"`
	BestTruePerf float64 `json:"best_true_perf"`
	// MeasurementSeconds is the simulated benchmark time the kernel's
	// trace paid for under the fidelity cost model.
	MeasurementSeconds float64 `json:"measurement_seconds"`
	// Rungs/Promotions summarize the triage schedule (hyperband only).
	Rungs      int `json:"rungs,omitempty"`
	Promotions int `json:"promotions,omitempty"`
	// PriorLen is how many prior-run configurations seeded the sampler.
	PriorLen int     `json:"prior_len,omitempty"`
	WallMS   float64 `json:"wall_ms"`
}

// measurementSeconds prices a trace under the cluster's fidelity cost
// model: estimated entries are free, full measurements cost the whole
// horizon, fidelity-f ones the warmup plus the scaled remainder.
func measurementSeconds(tr search.Trace, duration, warmup float64) float64 {
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

// bestConfigs extracts the trace's best distinct full-fidelity
// configurations — the shape of what a prior session deposits into the
// experience store.
func bestConfigs(tr search.Trace, dir search.Direction, keep int) []search.Config {
	meas := tr.Measured()
	sorted := append(search.Trace(nil), meas...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return dir.Better(sorted[i].Perf, sorted[j].Perf)
	})
	var out []search.Config
	seen := map[string]bool{}
	for _, e := range sorted {
		if k := e.Config.Key(); !seen[k] {
			seen[k] = true
			out = append(out, e.Config)
			if len(out) == keep {
				break
			}
		}
	}
	return out
}

// fidelityBench tunes the web cluster twice — cold full-fidelity simplex,
// then prior-seeded Hyperband, where the prior is the baseline session's
// deposited experience (the paper's prior-run reuse, collapsed into one
// process) — and writes the comparison as JSON on stdout.
func fidelityBench(rt *obs.Runtime, workload string, seed uint64, budget int) error {
	var mix tpcw.Mix
	switch workload {
	case "browsing":
		mix = tpcw.Browsing
	case "shopping":
		mix = tpcw.Shopping
	case "ordering":
		mix = tpcw.Ordering
	default:
		return fmt.Errorf("fidelity bench: unknown workload %q", workload)
	}
	const duration, warmup = 60, 8
	cluster := webservice.NewCluster(webservice.Options{Duration: duration, Warmup: warmup, Seed: seed + 1})
	space := webservice.Space()
	obj := cluster.ObjectiveStableAt(mix)
	dir := search.Maximize

	rep := fidelityBenchReport{
		Bench: "fidelity", Provenance: newProvenance(),
		Target: "webservice", Workload: workload,
		Seed: seed, Budget: budget, DurationS: duration, WarmupS: warmup,
	}

	// Arm 1 — the cold baseline: full-fidelity simplex, the trajectory
	// every prior PR pinned.
	start := time.Now()
	evBase := search.NewEvaluator(space, obj)
	evBase.MaxEvals = budget
	resBase, err := search.NelderMeadWithEvaluator(space, evBase, search.NelderMeadOptions{
		Init: search.DistributedInit{}, Direction: dir, MaxEvals: budget,
	})
	if err != nil {
		return fmt.Errorf("fidelity bench baseline: %w", err)
	}
	baseTrace := evBase.Trace()
	rep.Baseline = fidelityBenchArm{
		Kernel:             "simplex",
		Evals:              resBase.Evals,
		BestPerf:           resBase.BestPerf,
		BestTruePerf:       obj.MeasureAt(resBase.BestConfig, 1),
		MeasurementSeconds: measurementSeconds(baseTrace, duration, warmup),
		WallMS:             float64(time.Since(start)) / float64(time.Millisecond),
	}

	// Arm 2 — prior-seeded Hyperband: the baseline's best configurations
	// stand in for the experience the server would have deposited.
	priorCfgs := bestConfigs(baseTrace, dir, space.Dim()+1)
	prior := mfsearch.NewPrior(space, priorCfgs)
	start = time.Now()
	evHB := search.NewEvaluator(space, obj)
	evHB.MaxEvals = budget
	rungs, promotions := 0, 0
	tracer := search.TracerFunc(func(e search.Event) {
		if e.Type != search.EventRung {
			return
		}
		switch e.Op {
		case "open":
			rungs++
		case "promote":
			promotions++
		}
	})
	// The polish starts from a simplex of triage-vetted, full-fidelity
	// incumbents, so it gets a refinement allowance sized by dimension
	// rather than the baseline's cold exploration budget — the point of
	// the prior run is precisely that the warm start needs less patience.
	resHB, err := mfsearch.Run(space, evHB, prior, mfsearch.Options{
		Direction: dir,
		Seed:      seed + 11,
		Polish: search.NelderMeadOptions{
			MaxEvals: 5 * space.Dim(),
			MaxStall: 2 * space.Dim(),
		},
		Tracer: tracer,
	})
	if err != nil {
		return fmt.Errorf("fidelity bench hyperband: %w", err)
	}
	hbTrace := evHB.Trace()
	lowFi := 0
	for _, e := range hbTrace {
		if !e.Estimated && !search.FullFidelity(e.Fidelity) {
			lowFi++
		}
	}
	rep.Hyperband = fidelityBenchArm{
		Kernel:             "hyperband",
		Evals:              resHB.Evals,
		LowFidelityEvals:   lowFi,
		BestPerf:           resHB.BestPerf,
		BestTruePerf:       obj.MeasureAt(resHB.BestConfig, 1),
		MeasurementSeconds: measurementSeconds(hbTrace, duration, warmup),
		Rungs:              rungs,
		Promotions:         promotions,
		PriorLen:           prior.Len(),
		WallMS:             float64(time.Since(start)) / float64(time.Millisecond),
	}

	if rep.Baseline.MeasurementSeconds > 0 {
		rep.SavedSecondsFrac = 1 - rep.Hyperband.MeasurementSeconds/rep.Baseline.MeasurementSeconds
	}
	if rep.Baseline.BestPerf != 0 {
		rep.BestGapFrac = (rep.Baseline.BestPerf - rep.Hyperband.BestTruePerf) / rep.Baseline.BestPerf
	}

	rt.Logger.Info("fidelity bench complete",
		"baseline_best", rep.Baseline.BestPerf,
		"hyperband_best_true", rep.Hyperband.BestTruePerf,
		"saved_seconds_frac", fmt.Sprintf("%.3f", rep.SavedSecondsFrac),
		"best_gap_frac", fmt.Sprintf("%.4f", rep.BestGapFrac))

	return writeReport(rep)
}
