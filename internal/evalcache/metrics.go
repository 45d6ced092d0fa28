package evalcache

import (
	"harmony/internal/obs"
)

// Metrics is the measure-once layer's counter bundle, backed by an
// obs.Registry. Every field is a nil-safe obs handle and a nil *Metrics is
// itself valid, so an un-instrumented cache pays ~zero (one branch per
// event).
type Metrics struct {
	// Hits counts probes answered from the exact config→perf memo
	// (harmony_eval_cache_hits_total).
	Hits *obs.Counter
	// Misses counts probes the memo could not answer — they either go to
	// the estimation gate or to a real measurement
	// (harmony_eval_cache_misses_total).
	Misses *obs.Counter
	// Coalesced is always nil and reads 0: the layer no longer coalesces
	// concurrent measurements of one configuration. The field stays because
	// the benchmark module still reads it.
	Coalesced *obs.Counter
	// Estimated counts probes answered by the §4.3 estimation gate's plane
	// fit instead of a real measurement
	// (harmony_eval_cache_estimated_total).
	Estimated *obs.Counter
	// GateRejects counts estimation attempts the gate refused — too few
	// records, vertices too far, residual too large, degenerate fit — each
	// of which fell back to a real measurement
	// (harmony_eval_cache_gate_rejects_total).
	GateRejects *obs.Counter
	// SavedSeconds accumulates the measurement wall-clock the layer saved:
	// each exact hit is credited with the original measurement's cost (the
	// wall time of the batch that measured it), each estimated answer with
	// the cache's mean measurement cost
	// (harmony_eval_cache_saved_measurement_seconds_total).
	SavedSeconds *obs.FloatCounter
	// Size is the number of distinct configurations resident in the memo
	// (harmony_eval_cache_size). With several scoped caches alive the gauge
	// carries their sum.
	Size *obs.Gauge
	// Fills counts configurations hydrated from the durable experience
	// store at session registration (harmony_eval_cache_warm_fills_total).
	Fills *obs.Counter
	// TruthChecks counts estimation-gate answers that were re-measured for
	// calibration (Layer.TruthCheckEvery). Truth-checked probes tick both
	// Estimated and TruthChecks but pay a real measurement
	// (harmony_estimate_truth_checks_total).
	TruthChecks *obs.Counter
	// EstimateAbsError observes |measured - estimated| for every truth
	// check — the estimator's live calibration curve, in the objective's
	// own units (harmony_estimate_abs_error).
	EstimateAbsError *obs.Histogram
	// GateShrinks counts adaptive tightenings of the estimation gate: a
	// truth-check window whose mean relative error exceeded the calibration
	// bound, halving the gate's acceptance (harmony_gate_shrinks_total).
	GateShrinks *obs.Counter
	// GateEffMaxDist / GateEffMaxResidual / GateEffMinRecords expose the
	// gate's current effective acceptance thresholds — the configured values
	// bent by adaptive calibration (harmony_gate_effective_max_dist,
	// harmony_gate_effective_max_rel_residual,
	// harmony_gate_effective_min_records).
	GateEffMaxDist     *obs.Gauge
	GateEffMaxResidual *obs.Gauge
	GateEffMinRecords  *obs.Gauge
}

// NewMetrics registers the harmony_eval_cache_* family on reg and returns
// the bundle. A nil registry yields a bundle of nil handles (all updates
// no-ops), so callers can wire it unconditionally.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Hits:         reg.Counter("harmony_eval_cache_hits_total", "Probes answered from the exact config-perf memo."),
		Misses:       reg.Counter("harmony_eval_cache_misses_total", "Probes the memo could not answer."),
		Estimated:    reg.Counter("harmony_eval_cache_estimated_total", "Probes answered by the estimation gate's plane fit."),
		GateRejects:  reg.Counter("harmony_eval_cache_gate_rejects_total", "Estimation attempts the gate refused (fell back to measurement)."),
		SavedSeconds: reg.FloatCounter("harmony_eval_cache_saved_measurement_seconds_total", "Measurement wall-clock seconds saved by cache hits and estimation."),
		Size:         reg.Gauge("harmony_eval_cache_size", "Distinct configurations resident in the eval cache memo."),
		Fills:        reg.Counter("harmony_eval_cache_warm_fills_total", "Configurations hydrated from the durable experience store."),
		TruthChecks:  reg.Counter("harmony_estimate_truth_checks_total", "Estimation-gate answers re-measured for calibration."),
		EstimateAbsError: reg.Histogram("harmony_estimate_abs_error",
			"Absolute error of the estimation gate at calibration truth checks, in objective units.",
			[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100, 1e3, 1e4}),
		GateShrinks:        reg.Counter("harmony_gate_shrinks_total", "Adaptive tightenings of the estimation gate after a bad truth-check window."),
		GateEffMaxDist:     reg.Gauge("harmony_gate_effective_max_dist", "Effective max vertex distance the estimation gate currently accepts."),
		GateEffMaxResidual: reg.Gauge("harmony_gate_effective_max_rel_residual", "Effective max relative residual the estimation gate currently accepts."),
		GateEffMinRecords:  reg.Gauge("harmony_gate_effective_min_records", "Effective record floor before the estimation gate answers."),
	}
}

// nopMetrics backs the nil fast path: all handles nil, all updates no-ops.
var nopMetrics = &Metrics{}

// m resolves a possibly-nil metrics bundle to a never-nil one.
func (m *Metrics) orNop() *Metrics {
	if m != nil {
		return m
	}
	return nopMetrics
}
