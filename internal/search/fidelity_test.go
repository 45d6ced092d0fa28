package search

import (
	"math"
	"testing"
	"time"
)

func fidelitySpace() *Space {
	return MustSpace(
		Param{Name: "x", Min: 0, Max: 10, Step: 1, Default: 5},
		Param{Name: "y", Min: 0, Max: 10, Step: 1, Default: 5},
	)
}

// countingFidObjective records full- and reduced-fidelity calls; reduced
// fidelity returns a shifted value so tests can tell the paths apart.
type countingFidObjective struct {
	full, low int
}

func (o *countingFidObjective) Measure(cfg Config) float64 {
	o.full++
	return float64(cfg[0]*10 + cfg[1])
}

func (o *countingFidObjective) MeasureAt(cfg Config, fidelity float64) float64 {
	if FullFidelity(fidelity) {
		return o.Measure(cfg)
	}
	o.low++
	return float64(cfg[0]*10+cfg[1]) + 1000*fidelity
}

func TestFullFidelity(t *testing.T) {
	for _, f := range []float64{0, 1, 1.5} {
		if !FullFidelity(f) {
			t.Errorf("FullFidelity(%v) = false, want true", f)
		}
	}
	for _, f := range []float64{0.001, 0.25, 0.999} {
		if FullFidelity(f) {
			t.Errorf("FullFidelity(%v) = true, want false", f)
		}
	}
}

func TestEvalConfigAtFullTakesPlainPath(t *testing.T) {
	obj := &countingFidObjective{}
	ev := NewEvaluator(fidelitySpace(), obj)
	cfg := Config{3, 4}
	_, perfA, err := ev.EvalConfigAt(cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	_, perfB, err := ev.EvalConfigAt(cfg, 0) // 0 = unset = full
	if err != nil {
		t.Fatal(err)
	}
	if perfA != 34 || perfB != 34 {
		t.Fatalf("full-fidelity perfs = %v, %v, want 34", perfA, perfB)
	}
	if obj.full != 1 || obj.low != 0 {
		t.Fatalf("calls full=%d low=%d, want 1/0 (second probe is a cache hit)", obj.full, obj.low)
	}
	tr := ev.Trace()
	if len(tr) != 1 || tr[0].Fidelity != 0 {
		t.Fatalf("trace = %+v, want one full-fidelity entry", tr)
	}
}

func TestEvalConfigAtKeysOnFidelity(t *testing.T) {
	obj := &countingFidObjective{}
	ev := NewEvaluator(fidelitySpace(), obj)
	cfg := Config{3, 4}

	// A low-fidelity observation must not answer a full-fidelity probe.
	_, low, err := ev.EvalConfigAt(cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if low != 34+250 {
		t.Fatalf("low-fidelity perf = %v, want 284", low)
	}
	// Same (config, fidelity) repeats are cache hits…
	if _, again, _ := ev.EvalConfigAt(cfg, 0.25); again != low {
		t.Fatalf("repeat low probe = %v, want cached %v", again, low)
	}
	// …and distinct fidelities are distinct keys.
	if _, other, _ := ev.EvalConfigAt(cfg, 0.5); other != 34+500 {
		t.Fatalf("half-fidelity perf = %v, want 534", other)
	}
	_, full, err := ev.EvalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full != 34 {
		t.Fatalf("full-fidelity perf after low = %v, want a fresh 34", full)
	}
	if obj.full != 1 || obj.low != 2 {
		t.Fatalf("calls full=%d low=%d, want 1/2", obj.full, obj.low)
	}

	// Promotion-aware reuse: once the full truth exists, any fidelity
	// probe of the config is answered with it, measurement-free.
	calls := obj.full + obj.low
	_, promoted, err := ev.EvalConfigAt(Config{3, 4}, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	if promoted != 34 {
		t.Fatalf("promoted probe = %v, want the full truth 34", promoted)
	}
	if obj.full+obj.low != calls {
		t.Fatal("promoted probe paid a measurement")
	}
}

// TestTraceMeasuredDropsLowFidelity: only full-fidelity real measurements
// survive; low-fidelity samples, gate estimates and failure-scored points
// (penalties in either direction, non-finite values) are dropped.
func TestTraceMeasuredDropsLowFidelity(t *testing.T) {
	tr := Trace{
		{Index: 0, Perf: 1},
		{Index: 1, Perf: 2, Fidelity: 0.25},
		{Index: 2, Perf: 3, Estimated: true},
		{Index: 3, Perf: 4, Fidelity: 1},
		{Index: 4, Perf: FailurePenalty(Maximize)},
		{Index: 5, Perf: FailurePenalty(Minimize)},
		{Index: 6, Perf: math.NaN()},
	}
	got := tr.Measured()
	if len(got) != 2 || got[0].Perf != 1 || got[1].Perf != 4 {
		t.Fatalf("Measured() = %+v, want the two full-fidelity truths", got)
	}
	// No filtering needed → the receiver comes back uncopied.
	clean := Trace{{Perf: 1}, {Perf: 2}}
	if got := clean.Measured(); &got[0] != &clean[0] {
		t.Fatal("clean trace was copied")
	}
}

func TestTraceBestPrefersFullFidelity(t *testing.T) {
	tr := Trace{
		{Index: 0, Perf: 10},
		{Index: 1, Perf: 99, Fidelity: 0.25}, // noisy outlier
		{Index: 2, Perf: 20},
	}
	if best := tr.Best(Maximize); best.Perf != 20 {
		t.Fatalf("Best = %+v, want the full-fidelity 20", best)
	}
	// All-low-fidelity traces still answer (fallback).
	lowOnly := Trace{{Perf: 5, Fidelity: 0.5}, {Perf: 7, Fidelity: 0.5}}
	if best := lowOnly.Best(Maximize); best.Perf != 7 {
		t.Fatalf("low-only Best = %+v, want 7", best)
	}
}

// fakeFidCache implements ExternalCache and records the fidelity of every
// call.
type fakeFidCache struct {
	lookups, puts []float64
	store         map[string]float64
}

func (f *fakeFidCache) key(cfg Config, fid float64) string {
	if FullFidelity(fid) {
		return cfg.Key()
	}
	return cfg.Key() + "@low"
}

func (f *fakeFidCache) LookupAt(cfg Config, fid float64) (float64, bool, bool) {
	f.lookups = append(f.lookups, fid)
	p, ok := f.store[f.key(cfg, fid)]
	return p, false, ok
}

func (f *fakeFidCache) Put(cfg Config, fid, perf float64, _ time.Duration) {
	f.puts = append(f.puts, fid)
	f.store[f.key(cfg, fid)] = perf
}

func TestEvalConfigAtRoutesThroughFidelityExternal(t *testing.T) {
	obj := &countingFidObjective{}
	ev := NewEvaluator(fidelitySpace(), obj)
	ext := &fakeFidCache{store: map[string]float64{}}
	ev.External = ext

	if _, _, err := ev.EvalConfigAt(Config{1, 2}, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(ext.lookups) != 1 || len(ext.puts) != 1 || ext.lookups[0] != 0.5 || ext.puts[0] != 0.5 {
		t.Fatalf("routing: lookups=%v puts=%v, want one of each at fidelity 0.5", ext.lookups, ext.puts)
	}
	if _, ok := ext.store["1,2@low"]; !ok || len(ext.store) != 1 {
		t.Fatalf("stored entries %v, want only the low-fidelity key", ext.store)
	}
	if obj.low != 1 {
		t.Fatalf("objective low calls = %d, want 1", obj.low)
	}
}
