package evalcache

import (
	"math"
	"sync/atomic"
	"testing"

	"harmony/internal/obs"
	"harmony/internal/search"
)

func gateSpace(t *testing.T) *search.Space {
	t.Helper()
	sp, err := search.NewSpace(
		search.Param{Name: "x", Min: 0, Max: 100, Step: 1},
		search.Param{Name: "y", Min: 0, Max: 100, Step: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// planar is the surface the gate should trust: an exact hyperplane.
func planar(cfg search.Config) float64 {
	return 2*float64(cfg[0]) + 3*float64(cfg[1]) + 5
}

// observeGrid feeds the gate a grid of truths around (cx, cy).
func observeGrid(g *Gate, f func(search.Config) float64, cx, cy int) {
	for _, dx := range []int{-10, -5, 0, 5, 10} {
		for _, dy := range []int{-10, -5, 0, 5, 10} {
			cfg := search.Config{cx + dx, cy + dy}
			g.Observe(cfg, f(cfg))
		}
	}
}

func TestGateAnswersPlanarSurface(t *testing.T) {
	sp := gateSpace(t)
	m := NewMetrics(obs.NewRegistry())
	g := NewGate(sp, GateOptions{}, m)
	observeGrid(g, planar, 50, 50)

	target := search.Config{52, 48}
	got, ok := g.Estimate(target)
	if !ok {
		t.Fatal("gate declined a well-supported planar estimate")
	}
	want := planar(target)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
	if m.Estimated.Value() != 1 {
		t.Fatalf("estimated counter = %d, want 1", m.Estimated.Value())
	}
}

func TestGateDeclinesWithTooLittleHistory(t *testing.T) {
	sp := gateSpace(t)
	g := NewGate(sp, GateOptions{}, nil) // MinRecords defaults to 3*(dim+1) = 9
	for i := 0; i < 5; i++ {
		cfg := search.Config{10 * i, 10 * i % 30}
		g.Observe(cfg, planar(cfg))
	}
	if _, ok := g.Estimate(search.Config{20, 20}); ok {
		t.Fatal("gate estimated from too little history")
	}
}

func TestGateDeclinesFarFromSupport(t *testing.T) {
	sp := gateSpace(t)
	m := NewMetrics(obs.NewRegistry())
	g := NewGate(sp, GateOptions{}, m)
	observeGrid(g, planar, 10, 10) // support in one corner...

	if _, ok := g.Estimate(search.Config{90, 90}); ok { // ...target in the other
		t.Fatal("gate extrapolated far beyond its k-NN support")
	}
	if m.GateRejects.Value() == 0 {
		t.Fatal("rejection was not counted")
	}
}

// TestGateDeclinesNonPlanarSurface: with an overdetermined fit (K larger
// than dim+1) a strongly curved surface leaves a residual the gate must
// refuse to stand behind.
func TestGateDeclinesNonPlanarSurface(t *testing.T) {
	sp := gateSpace(t)
	curved := func(cfg search.Config) float64 {
		x := float64(cfg[0]) - 50
		return x * x // parabola: no plane fits 6 of its points
	}
	g := NewGate(sp, GateOptions{K: 6}, nil)
	observeGrid(g, curved, 50, 50)

	if v, ok := g.Estimate(search.Config{52, 48}); ok {
		t.Fatalf("gate trusted a non-planar fit (value %v)", v)
	}
}

// TestGateDeclinesDegenerateSupport: truths that only span a line cannot
// support a plane; the estimator flags the fit degenerate and the gate
// must fall back to a real measurement.
func TestGateDeclinesDegenerateSupport(t *testing.T) {
	sp := gateSpace(t)
	g := NewGate(sp, GateOptions{}, nil)
	for i := 0; i < 12; i++ {
		cfg := search.Config{i * 5, i * 5} // collinear: y = x
		g.Observe(cfg, planar(cfg))
	}
	if _, ok := g.Estimate(search.Config{30, 30}); ok {
		t.Fatal("gate estimated from an affinely dependent vertex set")
	}
}

func TestGateDedupsAndBoundsRecords(t *testing.T) {
	sp := gateSpace(t)
	g := NewGate(sp, GateOptions{MaxRecords: 10}, nil)
	for i := 0; i < 8; i++ {
		g.Observe(search.Config{1, 1}, 9) // duplicates add nothing
	}
	if got := g.Len(); got != 1 {
		t.Fatalf("len after duplicate observes = %d, want 1", got)
	}
	for i := 0; i < 30; i++ {
		g.Observe(search.Config{i, 100 - i}, float64(i))
	}
	if got := g.Len(); got > 10 {
		t.Fatalf("len = %d, want <= MaxRecords (10)", got)
	}
}

func TestGateIgnoresNonFinite(t *testing.T) {
	sp := gateSpace(t)
	g := NewGate(sp, GateOptions{}, nil)
	g.Observe(search.Config{1, 1}, math.NaN())
	g.Observe(search.Config{2, 2}, math.Inf(1))
	if g.Len() != 0 {
		t.Fatalf("non-finite truths recorded: len = %d", g.Len())
	}
}

// TestLayerTruthCheckCalibration: with TruthCheckEvery set, every Nth
// gate-answered probe is declined at Lookup and re-measured for real; the
// absolute error lands on the calibration histogram and the measured truth
// still enters the memo and the gate.
func TestLayerTruthCheckCalibration(t *testing.T) {
	sp := gateSpace(t)
	m := NewMetrics(obs.NewRegistry())
	g := NewGate(sp, GateOptions{}, m)
	observeGrid(g, planar, 50, 50)

	layer := &Layer{Cache: New(0, 0, m), Gate: g, TruthCheckEvery: 2}

	// 1st gated answer: estimated normally.
	if _, estimated, ok := layer.Lookup(search.Config{52, 48}); !ok || !estimated {
		t.Fatalf("first gated probe: ok=%v estimated=%v, want both true", ok, estimated)
	}

	// 2nd gated answer: the truth check declines so a real measurement is
	// paid. The real surface is the plane plus a bias, so the error is the
	// bias exactly.
	target := search.Config{47, 53}
	if _, _, ok := layer.Lookup(target); ok {
		t.Fatal("truth-checked probe was answered from the gate; want a forced miss")
	}
	const bias = 0.75
	layer.Put(target, 0, planar(target)+bias, 0)
	if v := m.TruthChecks.Value(); v != 1 {
		t.Fatalf("harmony_estimate_truth_checks_total = %d, want 1", v)
	}
	if c := m.EstimateAbsError.Count(); c != 1 {
		t.Fatalf("abs-error observations = %d, want 1", c)
	}
	if s := m.EstimateAbsError.Sum(); math.Abs(s-bias) > 1e-9 {
		t.Fatalf("abs-error sum = %v, want the bias %v", s, bias)
	}

	// The measured truth is memoized: the same config is now an exact hit,
	// not another estimate or measurement.
	if _, estimated, ok := layer.Lookup(target); !ok || estimated {
		t.Fatalf("post-check lookup: ok=%v estimated=%v, want exact hit", ok, estimated)
	}

	// A plain measurement with no pending check must not observe errors.
	layer.Put(search.Config{10, 10}, 0, 1, 0)
	if c := m.EstimateAbsError.Count(); c != 1 {
		t.Fatalf("plain measurement polluted calibration: %d observations", c)
	}
}

// TestLayerTruthCheckDisabledByDefault: zero TruthCheckEvery never
// declines a gate answer.
func TestLayerTruthCheckDisabledByDefault(t *testing.T) {
	sp := gateSpace(t)
	m := NewMetrics(obs.NewRegistry())
	g := NewGate(sp, GateOptions{}, m)
	observeGrid(g, planar, 50, 50)
	layer := &Layer{Cache: New(0, 0, m), Gate: g}

	for i := 0; i < 5; i++ {
		if _, estimated, ok := layer.Lookup(search.Config{51 + i, 49}); !ok || !estimated {
			t.Fatalf("probe %d: ok=%v estimated=%v, want gated answers throughout", i, ok, estimated)
		}
	}
	if v := m.TruthChecks.Value(); v != 0 {
		t.Fatalf("truth checks ran with TruthCheckEvery=0: %d", v)
	}
}

// TestGateAdaptiveShrinkAndRewiden drives the calibration loop directly:
// a truth-check window of bad estimates must halve the acceptance (and
// count a shrink), sustained accuracy must earn the width back — but never
// past the configured values.
func TestGateAdaptiveShrinkAndRewiden(t *testing.T) {
	sp := gateSpace(t)
	m := NewMetrics(obs.NewRegistry())
	g := NewGate(sp, GateOptions{AdaptWindow: 4}, m)
	d0, r0, n0 := g.EffectiveThresholds()
	if d0 != DefaultGateMaxDist || r0 != DefaultGateMaxRelResidual || n0 != 9 {
		t.Fatalf("initial thresholds %v %v %d, want configured defaults", d0, r0, n0)
	}

	// One window of 50%-relative-error checks: way over the 10% bound.
	for i := 0; i < 4; i++ {
		g.RecordTruthError(50, 100)
	}
	d, r, n := g.EffectiveThresholds()
	if d != d0/2 || r != r0/2 || n != 2*n0 {
		t.Fatalf("post-shrink thresholds %v %v %d, want halved acceptance and doubled floor", d, r, n)
	}
	if m.GateShrinks.Value() != 1 {
		t.Fatalf("shrink counter = %d, want 1", m.GateShrinks.Value())
	}
	if m.GateEffMaxDist.Value() != d {
		t.Fatalf("effective-dist gauge %v, want %v", m.GateEffMaxDist.Value(), d)
	}

	// Many windows of near-perfect checks: re-widen, capped at configured.
	for i := 0; i < 40; i++ {
		g.RecordTruthError(0.1, 100)
	}
	d, r, n = g.EffectiveThresholds()
	if d != d0 || r != r0 || n != n0 {
		t.Fatalf("post-rewiden thresholds %v %v %d, want the configured %v %v %d", d, r, n, d0, r0, n0)
	}
	if m.GateShrinks.Value() != 1 {
		t.Fatalf("re-widening must not count as a shrink (counter %d)", m.GateShrinks.Value())
	}
}

// TestGateAdaptiveDeadBand pins the hold band: a window whose mean error
// sits between bound/2 and bound neither shrinks nor re-widens.
func TestGateAdaptiveDeadBand(t *testing.T) {
	sp := gateSpace(t)
	g := NewGate(sp, GateOptions{AdaptWindow: 2}, nil)
	for i := 0; i < 2; i++ {
		g.RecordTruthError(50, 100) // shrink once
	}
	dShrunk, _, _ := g.EffectiveThresholds()
	for i := 0; i < 10; i++ {
		g.RecordTruthError(7, 100) // 7% mean: inside [5%, 10%)
	}
	if d, _, _ := g.EffectiveThresholds(); d != dShrunk {
		t.Fatalf("dead-band window moved the acceptance: %v -> %v", dShrunk, d)
	}
}

// TestGateFlushDropsRecordsKeepsTightening pins the drift re-tune
// contract: Flush discards the geometric history (no plane may be fitted
// through pre-drift truths) but the adapted acceptance survives.
func TestGateFlushDropsRecordsKeepsTightening(t *testing.T) {
	sp := gateSpace(t)
	g := NewGate(sp, GateOptions{AdaptWindow: 2}, nil)
	observeGrid(g, planar, 50, 50)
	if _, ok := g.Estimate(search.Config{52, 48}); !ok {
		t.Fatal("gate declined before the flush (test setup broken)")
	}
	g.RecordTruthError(50, 100)
	g.RecordTruthError(50, 100)
	dShrunk, _, _ := g.EffectiveThresholds()

	g.Flush()
	if g.Len() != 0 {
		t.Fatalf("records after flush = %d, want 0", g.Len())
	}
	if _, ok := g.Estimate(search.Config{52, 48}); ok {
		t.Fatal("gate answered from flushed history")
	}
	if d, _, _ := g.EffectiveThresholds(); d != dShrunk {
		t.Fatalf("flush reset the adapted acceptance: %v -> %v", dShrunk, d)
	}
	// Fresh truths rebuild the gate — but the doubled record floor now
	// demands more support than the default grid provides at first.
	observeGrid(g, planar, 50, 50)
	if _, ok := g.Estimate(search.Config{52, 48}); !ok {
		t.Fatal("gate never recovered after flush + re-observation")
	}
}

// TestLayerTruthCheckFeedsAdaptation closes the loop end-to-end: a layer
// whose gate estimates a curved surface as planar fails its truth checks
// and the gate tightens itself without any caller involvement.
func TestLayerTruthCheckFeedsAdaptation(t *testing.T) {
	sp := gateSpace(t)
	m := NewMetrics(obs.NewRegistry())
	// A gently curved surface the loose default residual bound tolerates,
	// but whose estimates are relatively far off at the probe points.
	curved := func(cfg search.Config) float64 {
		x, y := float64(cfg[0])-50, float64(cfg[1])-50
		return 10 + 0.05*(x*x+y*y)
	}
	l := &Layer{
		Cache:           New(0, 0, m),
		Gate:            NewGate(sp, GateOptions{MaxRelResidual: 10, AdaptWindow: 2, AdaptErrorBound: 0.01}, m),
		TruthCheckEvery: 1, // every gated answer is truth-checked
	}
	for _, dx := range []int{-10, -5, 0, 5, 10} {
		for _, dy := range []int{-10, -5, 0, 5, 10} {
			cfg := search.Config{50 + dx, 50 + dy}
			l.Put(cfg, 0, curved(cfg), 0)
		}
	}
	_, _, n0 := l.Gate.EffectiveThresholds()
	// Probe off-grid points: each gate answer is declined for calibration,
	// measured for real, and the (large) relative error recorded.
	probes := []search.Config{{51, 49}, {49, 51}, {52, 52}, {48, 49}, {51, 52}, {47, 52}}
	for _, cfg := range probes {
		if _, _, ok := l.Lookup(cfg); ok {
			t.Fatalf("truth-check-every-1 lookup of %v was answered, want declined", cfg)
		}
		l.Put(cfg, 0, curved(cfg), 0)
	}
	if m.TruthChecks.Value() == 0 {
		t.Fatal("no truth checks ran (gate never answered?)")
	}
	if m.GateShrinks.Value() == 0 {
		t.Fatal("bad truth checks did not tighten the gate")
	}
	if _, _, n := l.Gate.EffectiveThresholds(); n <= n0 {
		t.Fatalf("record floor %d after shrink, want > %d", n, n0)
	}
}

// TestSpeculateLooksUpOnce: a speculative round asks the layer about each
// candidate once. Three fresh candidates are three misses, not six; and
// with TruthCheckEvery 2 the candidate the layer holds back for a truth
// check is measured, which closes its check, instead of being answered by
// a second lookup's estimate.
func TestSpeculateLooksUpOnce(t *testing.T) {
	sp := gateSpace(t)
	t.Run("misses", func(t *testing.T) {
		m := NewMetrics(obs.NewRegistry())
		ev := search.NewEvaluator(sp, search.ObjectiveFunc(planar))
		ev.External = &Layer{Cache: New(0, 0, m)}
		if n := ev.Speculate([][]float64{{10, 10}, {20, 20}, {30, 30}}, 2).Len(); n != 3 {
			t.Fatalf("speculation resolved %d candidates, want 3", n)
		}
		if hits, misses := m.Hits.Value(), m.Misses.Value(); hits != 0 || misses != 3 {
			t.Fatalf("hits=%d misses=%d, want 0 and 3", hits, misses)
		}
	})
	t.Run("truth check", func(t *testing.T) {
		m := NewMetrics(obs.NewRegistry())
		g := NewGate(sp, GateOptions{}, m)
		observeGrid(g, planar, 50, 50)
		layer := &Layer{Cache: New(0, 0, m), Gate: g, TruthCheckEvery: 2}
		var measured atomic.Int64
		ev := search.NewEvaluator(sp, search.ObjectiveFunc(func(cfg search.Config) float64 {
			measured.Add(1)
			return planar(cfg) + 0.75
		}))
		ev.External = layer
		if n := ev.Speculate([][]float64{{52, 48}, {47, 53}}, 2).Len(); n != 2 {
			t.Fatalf("speculation resolved %d candidates, want 2", n)
		}
		if n := measured.Load(); n != 1 {
			t.Fatalf("measured %d candidates, want the truth-checked one", n)
		}
		if n := m.TruthChecks.Value(); n != 1 {
			t.Fatalf("truth checks = %d, want 1", n)
		}
		if n := len(layer.pending); n != 0 {
			t.Fatalf("%d truth checks still pending, want 0", n)
		}
	})
}
