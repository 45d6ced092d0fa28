package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric, its unit, which direction is better
// and — for end-to-end metrics — the bound: the share of the parent's
// median by which it may get worse before a change counts as a regression.
// BENCHMARK.json lists the same definitions; the self-test keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the daemon sees, reported on every
// workload by an untraced run. The last five are deterministic for a seed.
// A bound must be wider than a metric's spread over runs of one build on ten
// seeds. The timings get the widest allowed, 25%: on the shared 2-CPU virtual
// machine the benchmark was calibrated on, ten runs spread by up to 19% even
// scaled to the reference machine's speed (see calibrate). The paper metrics
// vary with the seed's inputs — their per-session values are heavy-tailed —
// by up to 8% on warm-web's convergence metrics, 6% on its measurement cost
// and 2% on hyperband-json's best_perf and initial_frac; -compare judges
// them seed by seed instead (seedVerdict).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sessions_per_s", "1/s", "higher", 0.25},
	{"exchange_p50_us", "us", "lower", 0.25},
	{"exchange_p99_us", "us", "lower", 0.25},
	{"cpu_ms_per_session", "ms", "lower", 0.25},
	{"allocs_per_exchange", "count", "lower", 0.05},
	{"measure_s_per_session", "sim_s", "lower", 0.20},
	{"measure_s_to_98", "sim_s", "lower", 0.25},
	{"evals_to_98", "count", "lower", 0.25},
	{"initial_frac", "ratio", "higher", 0.06},
	{"best_perf", "objective", "higher", 0.06},
}

// timings are the end-to-end metrics measured in time, which a run scales to
// the reference machine's speed.
var timings = []string{"setup_s", "sessions_per_s", "exchange_p50_us", "exchange_p99_us", "cpu_ms_per_session"}

// deterministic are the end-to-end metrics that repeat exactly for a seed;
// orderDependent are the ones among them that, on a pipelined workload, hang
// on the order of concurrently dispatched measurements (see canonicalOrder).
var (
	deterministic  = []string{"measure_s_per_session", "measure_s_to_98", "evals_to_98", "initial_frac", "best_perf"}
	orderDependent = map[string]bool{"measure_s_to_98": true, "evals_to_98": true}
)

// perLayer are the per-layer metrics a traced run (-trace 1) reports on
// every workload. Where a layer does no work on a workload its counts and
// ratios read 0; README.md maps each to the end-to-end metric it should
// move. Timings a layer only has on some workloads (store matches and warm
// fills, the hub's share of the trace fan-out) are in the layer report but
// not here, since on the other workloads they would be empty.
var perLayer = []metricDef{
	{Name: "server.dial_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.register_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.register_us_p99", Unit: "us", Better: "lower"},
	{Name: "server.exchanges_per_session", Unit: "count", Better: "lower"},
	{Name: "server.blocked_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.faults", Unit: "count", Better: "lower"},
	{Name: "mux.client_frames_per_flush", Unit: "ratio", Better: "higher"},
	{Name: "mux.server_frames_per_flush", Unit: "ratio", Better: "higher"},
	{Name: "mux.sessions_per_conn", Unit: "ratio", Better: "higher"},
	{Name: "mux.credit_stalls", Unit: "count", Better: "lower"},
	{Name: "mux.evictions", Unit: "count", Better: "lower"},
	{Name: "ctlplane.events_per_session", Unit: "count", Better: "lower"},
	{Name: "ctlplane.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "search.evals_per_session", Unit: "count", Better: "lower"},
	{Name: "search.simplex_ops_per_session", Unit: "count", Better: "lower"},
	{Name: "search.restarts_per_session", Unit: "count", Better: "lower"},
	{Name: "search.nm2_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "search.nm10_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "mfsearch.rungs_per_session", Unit: "count", Better: "lower"},
	{Name: "mfsearch.promotions_per_session", Unit: "count", Better: "lower"},
	{Name: "mfsearch.lowfi_frac", Unit: "ratio", Better: "higher"},
	{Name: "evalcache.hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "evalcache.estimated_frac", Unit: "ratio", Better: "higher"},
	{Name: "evalcache.gate_reject_frac", Unit: "ratio", Better: "lower"},
	{Name: "evalcache.coalesced", Unit: "count", Better: "higher"},
	{Name: "evalcache.truth_checks", Unit: "count", Better: "lower"},
	{Name: "evalcache.est_abs_err_mean", Unit: "objective", Better: "lower"},
	{Name: "evalcache.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "evalcache.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "evalcache.gate_estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "estimate.prepare_ns", Unit: "ns", Better: "lower"},
	{Name: "estimate.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "store.record_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.record_us_p99", Unit: "us", Better: "lower"},
	{Name: "store.warm_frac", Unit: "ratio", Better: "higher"},
	{Name: "expdb.recovered_records", Unit: "count", Better: "higher"},
	{Name: "expdb.deposit_fsync_us", Unit: "us", Better: "lower"},
	{Name: "expdb.deposit_nosync_us", Unit: "us", Better: "lower"},
	{Name: "expdb.match_ns", Unit: "ns", Better: "lower"},
	{Name: "rsl.parse_quad_ns", Unit: "ns", Better: "lower"},
	{Name: "rsl.parse_web_ns", Unit: "ns", Better: "lower"},
	{Name: "webservice.measure_us_p50", Unit: "us", Better: "lower"},
	{Name: "webservice.measure_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// reportOnly are layer timings kept in the layer report where the workload
// exercises them.
var reportOnly = []metricDef{
	{Name: "store.match_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.warmfill_us_p50", Unit: "us", Better: "lower"},
	{Name: "ctlplane.emit_ns_mean", Unit: "ns", Better: "lower"},
}

// percentile is the nearest-rank p-quantile of ds; it sorts ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(p*float64(len(ds)))) - 1
	if k < 0 {
		k = 0
	}
	return ds[k]
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the three cut points of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), so
// spreads here match ones computed in Python. vs needs at least two values;
// quartiles sorts a copy.
func quartiles(vs []float64) [3]float64 {
	data := append([]float64(nil), vs...)
	sort.Float64s(data)
	ld, n := len(data), 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / float64(n)
	}
	return q
}

func median(vs []float64) float64 {
	data := append([]float64(nil), vs...)
	sort.Float64s(data)
	n := len(data)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}
