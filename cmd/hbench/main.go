// Command hbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hbench -list
//	hbench -exp fig6
//	hbench -exp all -quick
//
// Each experiment prints the same rows or series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
// With -json, hbench switches to trajectory mode: it runs one tuning
// session against the selected -target and emits per-iteration trajectory
// records — {"iter":N,"perf":P,"best":B,"elapsed_ms":E} — as JSONL on
// stdout, via the search.Tracer hook. Trajectories are deterministic for a
// given seed, so the same flags reproduce the same trajectory:
//
//	hbench -json -target webservice -workload ordering -budget 120
//	hbench -json -target synthetic -seed 7 -improved=false
//
// The shared observability flags also apply: -trace-out captures the full
// typed event stream (simplex operations, seeds, convergence decisions)
// alongside the reduced trajectory, and -obs-addr exposes /metrics,
// /healthz and /debug/pprof while a long bench runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"harmony/internal/core"
	"harmony/internal/datagen"
	"harmony/internal/experiment"
	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id to run, or 'all'")
		quick    = flag.Bool("quick", false, "shrink budgets (coarser, faster)")
		seed     = flag.Uint64("seed", 0, "seed offset for all experiment randomness")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut  = flag.Bool("json", false, "trajectory mode: tune -target once and emit per-iteration JSONL records (iter, perf, best, elapsed_ms) on stdout")
		target   = flag.String("target", "webservice", "trajectory target: webservice or synthetic")
		workload = flag.String("workload", "ordering", "TPC-W mix for the webservice target: browsing, shopping or ordering")
		budget   = flag.Int("budget", 120, "trajectory exploration budget")
		improved = flag.Bool("improved", true, "use the evenly-distributed initial exploration (§4.1)")
		workers  = flag.Int("workers", 1, "trajectory mode: concurrent measurements (the parallel simplex kernel; 1 = sequential)")
		latency  = flag.Duration("latency", 0, "trajectory mode: added per-measurement latency, simulating a slow benchmark harness")
	)
	obsCfg := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range experiment.Names() {
			fmt.Printf("%-18s %s\n", id, experiment.Describe(id))
		}
		return
	}

	rt, err := obsCfg.Start(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbench:", err)
		os.Exit(1)
	}
	defer rt.Close()

	if *jsonOut {
		if err := trajectory(rt, *target, *workload, *budget, *improved, *seed, *workers, *latency); err != nil {
			rt.Logger.Error("trajectory failed", "target", *target, "err", err)
			rt.Close()
			os.Exit(1)
		}
		return
	}

	cfg := experiment.Config{Quick: *quick, Seed: *seed}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiment.Names()
	}
	failed := false
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiment.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(tbl)
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if failed {
		rt.Close()
		os.Exit(1)
	}
}

// trajectory runs one tuning session against the named target and streams
// the per-iteration records as JSONL on stdout. The full typed event trace
// additionally lands in -trace-out when set.
//
// With -workers > 1 the session runs on the parallel simplex kernel: the
// initial simplex, shrink steps and the per-iteration candidate rounds are
// measured concurrently. Every measurement stays reproducible (variation is
// derived from configuration content, not call order), and the trajectory
// is deterministic for a given -workers value. Narrow spaces (three or
// fewer tuned parameters) reproduce the -workers 1 trajectory exactly;
// wider spaces switch to the multi-point simplex kernel, which walks a
// different — more parallel — path over the same surface, trading
// per-iteration round-trips for wall-clock, which -latency makes visible
// by simulating a slow benchmark harness.
func trajectory(rt *obs.Runtime, target, workload string, budget int, improved bool, seed uint64, workers int, latency time.Duration) error {
	var (
		space *search.Space
		obj   search.Objective
	)
	dir := search.Maximize
	switch target {
	case "webservice":
		var mix tpcw.Mix
		switch workload {
		case "browsing":
			mix = tpcw.Browsing
		case "shopping":
			mix = tpcw.Shopping
		case "ordering":
			mix = tpcw.Ordering
		default:
			return fmt.Errorf("unknown workload %q", workload)
		}
		cluster := webservice.NewCluster(webservice.Options{Duration: 60, Warmup: 8, Seed: seed + 1})
		space = webservice.Space()
		// Content-derived measurement variation: order-independent and
		// concurrency-safe, so every configuration measures the same no
		// matter which worker measures it, in whatever order.
		obj = cluster.ObjectiveStable(mix)
	case "synthetic":
		model, err := datagen.New(datagen.PaperSpec(seed + 5))
		if err != nil {
			return err
		}
		space = model.TunableSpace()
		w := model.WorkloadSpace().DefaultConfig()
		obj = search.Failable(func(cfg search.Config) (float64, error) {
			return model.Eval(cfg, w)
		}, dir)
		if workers > 1 {
			// The synthetic model is not audited for concurrent use;
			// serialize the model itself (it is cheap) while the injected
			// latency below still overlaps.
			obj = search.Synchronized(obj)
		}
	default:
		return fmt.Errorf("unknown target %q (want webservice or synthetic)", target)
	}
	if latency > 0 {
		inner := obj
		obj = search.ObjectiveFunc(func(cfg search.Config) float64 {
			time.Sleep(latency) // the harness round-trip; overlaps across workers
			return inner.Measure(cfg)
		})
	}

	traj := obs.NewTrajectoryJSONL(os.Stdout, dir)
	tracer := search.MultiTracer(traj, rt.Tracer())

	tuner := core.New(space, obj)
	start := time.Now()
	sess, err := tuner.Run(core.Options{
		Direction: dir,
		MaxEvals:  budget,
		Improved:  improved,
		Parallel:  workers,
		Tracer:    tracer,
	})
	if err != nil {
		return err
	}
	m := sess.Metrics(0.01, 10, 0.7)
	rt.Logger.Info("trajectory complete",
		"target", target, "evals", m.Evals, "best", m.BestPerf,
		"converged_iter", m.ConvergenceIter, "workers", workers,
		"elapsed", time.Since(start))
	return nil
}
