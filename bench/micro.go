package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"harmony/internal/ctlplane"
	"harmony/internal/estimate"
	"harmony/internal/evalcache"
	"harmony/internal/expdb"
	"harmony/internal/rsl"
	"harmony/internal/search"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

// micro is one layer micro-benchmark: a public call of one layer, timed in
// a loop on inputs generated from the seed. setup prepares the inputs (in
// dir, when the layer needs files) and returns the loop, which makes n calls
// and returns the units of work they did; the result is time per unit.
type micro struct {
	metric string // the per-layer metric it feeds
	setup  func(seed uint64, dir string) (op func(n int) int, cleanup func() error, err error)
}

var micros = []micro{
	{"rsl.parse_quad_ns", parseRSL(quadRSL)},
	{"rsl.parse_web_ns", parseRSL(webRSL())},
	{"search.nm2_ns_per_eval", nelderMead(2)},
	{"search.nm10_ns_per_eval", nelderMead(10)},
	{"evalcache.lookup_hit_ns", layerLookup(true)},
	{"evalcache.lookup_miss_ns", layerLookup(false)},
	{"evalcache.gate_estimate_ns", gateEstimate},
	{"estimate.prepare_ns", estimatePrepare},
	{"estimate.estimate_ns", estimateEstimate},
	{"expdb.deposit_fsync_us", deposit(expdb.SyncAlways)},
	{"expdb.deposit_nosync_us", deposit(expdb.SyncNone)},
	{"expdb.match_ns", expdbMatch},
	{"ctlplane.emit_ns", hubEmit},
}

func noCleanup() error { return nil }

// sink keeps the compiler from discarding the benchmarked calls' results.
var sink any

func parseRSL(src string) func(uint64, string) (func(int) int, func() error, error) {
	return func(uint64, string) (func(int) int, func() error, error) {
		return func(n int) int {
			for i := 0; i < n; i++ {
				spec, err := rsl.Parse(src)
				if err != nil {
					panic(err) // a constant spec; failing to parse is a bug
				}
				sink = spec
			}
			return n
		}, noCleanup, nil
	}
}

// smooth10 is a cheap smooth objective over the web space: minus the
// squared grid distance to a seeded optimum.
func smooth10(rng *stats.RNG) func(search.Config) float64 {
	space := webservice.Space()
	opt := make([]int, space.Dim())
	for j, p := range space.Params {
		opt[j] = p.Min + p.Step*rng.Intn((p.Max-p.Min)/p.Step+1)
	}
	return func(cfg search.Config) float64 {
		s := 0.0
		for j, p := range space.Params {
			d := float64(cfg[j]-opt[j]) / float64(p.Step)
			s += d * d
		}
		return 1000 - s
	}
}

// nelderMead times whole simplex searches, 40 evaluations on the quadratic
// or 120 on the 10-parameter space with a smooth objective; the unit is
// one evaluation.
func nelderMead(dim int) func(uint64, string) (func(int) int, func() error, error) {
	return func(seed uint64, _ string) (func(int) int, func() error, error) {
		rng := stats.NewRNG(seed ^ uint64(dim))
		var space *search.Space
		budget := 40
		objs := make([]search.Objective, 16)
		if dim == 2 {
			spec, err := rsl.Parse(quadRSL)
			if err != nil {
				return nil, nil, err
			}
			if space, err = spec.Static(); err != nil {
				return nil, nil, err
			}
			for k := range objs {
				cx, cy := rng.IntRange(0, 60), rng.IntRange(0, 60)
				objs[k] = search.ObjectiveFunc(func(cfg search.Config) float64 { return quad(cfg, cx, cy) })
			}
		} else {
			space, budget = webservice.Space(), 120
			for k := range objs {
				objs[k] = search.ObjectiveFunc(smooth10(rng))
			}
		}
		return func(n int) int {
			evals := 0
			for i := 0; i < n; i++ {
				res, err := search.NelderMead(space, objs[i%len(objs)], search.NelderMeadOptions{
					Init: search.DistributedInit{}, Direction: search.Maximize, MaxEvals: budget,
				})
				if err != nil {
					panic(err) // a fixed space and objective; an error is a bug
				}
				evals += res.Evals
			}
			return evals
		}, noCleanup, nil
	}
}

// randomWebConfigs draws n configurations of the web space.
func randomWebConfigs(rng *stats.RNG, n int) []search.Config {
	space := webservice.Space()
	out := make([]search.Config, n)
	for i := range out {
		cfg := make(search.Config, space.Dim())
		for j, p := range space.Params {
			cfg[j] = p.Min + p.Step*rng.Intn((p.Max-p.Min)/p.Step+1)
		}
		out[i] = cfg
	}
	return out
}

// layerLookup times evalcache.Layer.Lookup against a memo of 1024 web
// configurations, probing present (hit) or absent (miss) ones.
func layerLookup(hit bool) func(uint64, string) (func(int) int, func() error, error) {
	return func(seed uint64, _ string) (func(int) int, func() error, error) {
		cfgs := randomWebConfigs(stats.NewRNG(seed^0x1f), 2048)
		layer := &evalcache.Layer{Cache: evalcache.New(0, 0, nil)}
		for _, cfg := range cfgs[:1024] {
			layer.Fill(cfg, 1)
		}
		probes := cfgs[:1024]
		if !hit {
			probes = cfgs[1024:]
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				perf, _, ok := layer.Lookup(probes[i%len(probes)])
				if ok != hit {
					panic(fmt.Sprintf("lookup ok=%v, want %v", ok, hit)) // a duplicate draw; pick another seed
				}
				sink = perf
			}
			return n
		}, noCleanup, nil
	}
}

// webRecords are 200 truths of the smooth objective on the web space, the
// history the gate and the estimator fit planes through.
func webRecords(rng *stats.RNG) []estimate.Record {
	f := smooth10(rng)
	recs := make([]estimate.Record, 200)
	for i, cfg := range randomWebConfigs(rng, len(recs)) {
		recs[i] = estimate.Record{Config: cfg, Perf: f(cfg), Seq: i}
	}
	return recs
}

// gateEstimate times evalcache.Gate.Estimate over 200 observed truths; the
// plane-fit index is built before timing starts.
func gateEstimate(seed uint64, _ string) (func(int) int, func() error, error) {
	rng := stats.NewRNG(seed ^ 0x2f)
	gate := evalcache.NewGate(webservice.Space(), evalcache.GateOptions{MaxVertexDist: 0.45, MaxRelResidual: 0.10}, nil)
	for _, r := range webRecords(rng) {
		gate.Observe(r.Config, r.Perf)
	}
	targets := randomWebConfigs(rng, 256)
	gate.Estimate(targets[0])
	return func(n int) int {
		for i := 0; i < n; i++ {
			v, _ := gate.Estimate(targets[i%len(targets)])
			sink = v
		}
		return n
	}, noCleanup, nil
}

func webEstimator() *estimate.Estimator {
	return &estimate.Estimator{Space: webservice.Space(), Index: expdb.NewVertexIndex}
}

// estimatePrepare times estimate.Estimator.Prepare over 200 records.
func estimatePrepare(seed uint64, _ string) (func(int) int, func() error, error) {
	recs, est := webRecords(stats.NewRNG(seed^0x3f)), webEstimator()
	return func(n int) int {
		for i := 0; i < n; i++ {
			p, err := est.Prepare(recs)
			if err != nil {
				panic(err) // 200 distinct records always prepare
			}
			sink = p
		}
		return n
	}, noCleanup, nil
}

// estimateEstimate times estimate.Prepared.Estimate over 200 records.
func estimateEstimate(seed uint64, _ string) (func(int) int, func() error, error) {
	rng := stats.NewRNG(seed ^ 0x4f)
	p, err := webEstimator().Prepare(webRecords(rng))
	if err != nil {
		return nil, nil, err
	}
	targets := randomWebConfigs(rng, 256)
	return func(n int) int {
		for i := 0; i < n; i++ {
			v, _ := p.Estimate(targets[i%len(targets)])
			sink = v
		}
		return n
	}, noCleanup, nil
}

// depositTrace is a 40-measurement session trace on the web space.
func depositTrace(rng *stats.RNG) search.Trace {
	tr := make(search.Trace, 40)
	for i, cfg := range randomWebConfigs(rng, len(tr)) {
		tr[i] = search.Evaluation{Index: i, Config: cfg, Perf: 50 + 40*rng.Float64()}
	}
	return tr
}

// deposit times expdb.Store.Deposit of a 40-measurement trace under one of
// the three mixes' characteristics, with the given fsync policy, on a fresh
// store in dir. Snapshots are off, so the unit is one WAL append and apply.
func deposit(policy expdb.SyncPolicy) func(uint64, string) (func(int) int, func() error, error) {
	return func(seed uint64, dir string) (func(int) int, func() error, error) {
		rng := stats.NewRNG(seed ^ 0x5f)
		db, err := expdb.Open(expdb.Options{Dir: filepath.Join(dir, "deposit-"+policy.String()), Sync: policy, SnapshotEvery: -1})
		if err != nil {
			return nil, nil, err
		}
		tr := depositTrace(rng)
		mixes := tpcw.StandardMixes()
		return func(n int) int {
			for i := 0; i < n; i++ {
				chars := tpcw.MixCharacteristics(mixes[i%len(mixes)])
				if _, err := db.Deposit("bench/web", "bench", chars, search.Maximize, tr); err != nil {
					panic(err) // the scratch disk failed; nothing to measure
				}
			}
			return n
		}, db.Close, nil
	}
}

// expdbMatch times expdb.Store.Match against 1,000 experiences in one
// namespace; the k-d index is built before timing starts.
func expdbMatch(seed uint64, dir string) (func(int) int, func() error, error) {
	rng := stats.NewRNG(seed ^ 0x6f)
	db, err := expdb.Open(expdb.Options{Dir: filepath.Join(dir, "match"), Sync: expdb.SyncNone, SnapshotEvery: -1, CompactAbove: -1})
	if err != nil {
		return nil, nil, err
	}
	chars := func() []float64 {
		c := make([]float64, tpcw.NumInteractions)
		for k := range c {
			c[k] = rng.Float64()
		}
		return c
	}
	tr := depositTrace(rng)[:8]
	for i := 0; i < 1000; i++ {
		if _, err := db.Deposit("bench/web", "bench", chars(), search.Maximize, tr); err != nil {
			return nil, nil, err
		}
	}
	targets := make([][]float64, 256)
	for i := range targets {
		targets[i] = chars()
	}
	db.Match("bench/web", targets[0])
	return func(n int) int {
		for i := 0; i < n; i++ {
			exp, _, _ := db.Match("bench/web", targets[i%len(targets)])
			sink = exp
		}
		return n
	}, db.Close, nil
}

// hubEmit times ctlplane.Hub.Emit of an evaluation event with no SSE
// subscriber attached, as on a daemon nobody is watching.
func hubEmit(uint64, string) (func(int) int, func() error, error) {
	hub := ctlplane.NewHub(0, nil)
	e := search.Event{Session: "0123456789abcdef", Time: time.Now(), Type: search.EventEval,
		Index: 3, Config: search.Config{20, 45}, Perf: 999}
	return func(n int) int {
		for i := 0; i < n; i++ {
			hub.Emit(e)
		}
		return n
	}, func() error { hub.Close(); return nil }, nil
}

// runMicro times m until one measured loop lasts at least target and
// returns the time per unit: nanoseconds, or microseconds for a "_us"
// metric.
func runMicro(m micro, seed uint64, dir string, target time.Duration) (v float64, err error) {
	op, cleanup, err := m.setup(seed, dir)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", m.metric, err)
	}
	defer func() {
		if cerr := cleanup(); err == nil && cerr != nil {
			err = fmt.Errorf("%s: %w", m.metric, cerr)
		}
	}()
	op(1)
	for n := 1; ; {
		start := time.Now()
		units := op(n)
		elapsed := time.Since(start)
		if elapsed >= target || n >= 1<<30 {
			v = float64(elapsed.Nanoseconds()) / float64(units)
			if strings.HasSuffix(m.metric, "_us") {
				v /= 1e3
			}
			return v, nil
		}
		// Grow like the testing package: aim 20% past the target, at most
		// 100x per round.
		next := 100 * n
		if elapsed > 0 {
			next = int(1.2 * float64(n) * float64(target) / float64(elapsed))
		}
		n = max(n+1, min(next, 100*n))
	}
}
