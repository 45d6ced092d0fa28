package evalcache_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"harmony/internal/evalcache"
	"harmony/internal/obs"
	"harmony/internal/search"
)

func layerSpace(t *testing.T) *search.Space {
	t.Helper()
	sp, err := search.NewSpace(
		search.Param{Name: "x", Min: 0, Max: 60, Step: 1},
		search.Param{Name: "y", Min: 0, Max: 60, Step: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// quad is the deterministic benchmark objective (maximize).
func quad(cfg search.Config) float64 {
	dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
	return 1000 - dx*dx - dy*dy
}

// countingObjective counts real invocations per configuration key.
type countingObjective struct {
	mu    sync.Mutex
	calls map[string]int
	total int
	f     func(search.Config) float64
}

func newCounting(f func(search.Config) float64) *countingObjective {
	return &countingObjective{calls: map[string]int{}, f: f}
}

func (c *countingObjective) Measure(cfg search.Config) float64 {
	c.mu.Lock()
	c.calls[cfg.Key()]++
	c.total++
	c.mu.Unlock()
	return c.f(cfg)
}

func (c *countingObjective) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func (c *countingObjective) MaxPerKey() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	worstK, worstN := "", 0
	for k, n := range c.calls {
		if n > worstN {
			worstK, worstN = k, n
		}
	}
	return worstK, worstN
}

// stripTimes zeroes the wall-clock stamps so event streams compare by
// content.
func stripTimes(events []search.Event) []search.Event {
	out := append([]search.Event(nil), events...)
	for i := range out {
		out[i].Time = time.Time{}
	}
	return out
}

func runKernel(t *testing.T, sp *search.Space, obj search.Objective, external search.ExternalCache, parallel int) (*search.Result, []search.Event) {
	t.Helper()
	ev := search.NewEvaluator(sp, obj)
	ev.MaxEvals = 150
	tr := &search.CollectTracer{}
	ev.Tracer = tr
	ev.External = external
	res, err := search.NelderMeadWithEvaluator(sp, ev, search.NelderMeadOptions{
		Init:     search.DistributedInit{},
		MaxEvals: 150,
		Parallel: parallel,
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, stripTimes(tr.Events)
}

// TestExactCacheTrajectoryIdentity is the acceptance gate: with exact-only
// caching (no estimation gate) the committed event stream — evaluations,
// simplex operations, convergence decisions — is identical to the uncached
// run, while the number of real objective invocations drops on a repeat
// session.
func TestExactCacheTrajectoryIdentity(t *testing.T) {
	sp := layerSpace(t)

	baseObj := newCounting(quad)
	baseRes, baseEvents := runKernel(t, sp, baseObj, nil, 1)

	cache := evalcache.New(0, 0, evalcache.NewMetrics(obs.NewRegistry()))
	firstObj := newCounting(quad)
	firstRes, firstEvents := runKernel(t, sp, firstObj, &evalcache.Layer{Cache: cache}, 1)

	if len(firstEvents) != len(baseEvents) {
		t.Fatalf("cached run emitted %d events, uncached %d", len(firstEvents), len(baseEvents))
	}
	for i := range baseEvents {
		if baseEvents[i].Type != firstEvents[i].Type ||
			baseEvents[i].Op != firstEvents[i].Op ||
			baseEvents[i].Index != firstEvents[i].Index ||
			baseEvents[i].Perf != firstEvents[i].Perf ||
			baseEvents[i].Cached != firstEvents[i].Cached ||
			baseEvents[i].Estimated != firstEvents[i].Estimated ||
			baseEvents[i].Config.Key() != firstEvents[i].Config.Key() {
			t.Fatalf("event %d diverged:\nuncached: %+v\ncached:   %+v", i, baseEvents[i], firstEvents[i])
		}
	}
	if firstRes.BestPerf != baseRes.BestPerf || firstRes.Evals != baseRes.Evals {
		t.Fatalf("results diverged: cached %+v, uncached %+v", firstRes, baseRes)
	}
	if firstObj.Total() != baseObj.Total() {
		t.Fatalf("cold cached run invoked the objective %d times, uncached %d", firstObj.Total(), baseObj.Total())
	}

	// A repeat session over the same cache replays the identical trajectory
	// without paying for the measurements again.
	secondObj := newCounting(quad)
	secondRes, secondEvents := runKernel(t, sp, secondObj, &evalcache.Layer{Cache: cache}, 1)
	if len(secondEvents) != len(baseEvents) || secondRes.BestPerf != baseRes.BestPerf {
		t.Fatalf("warm repeat diverged: %d events best %v, want %d events best %v",
			len(secondEvents), secondRes.BestPerf, len(baseEvents), baseRes.BestPerf)
	}
	saved := float64(baseObj.Total()-secondObj.Total()) / float64(baseObj.Total())
	if saved < 0.25 {
		t.Fatalf("warm repeat saved only %.0f%% of objective invocations (%d -> %d), want >= 25%%",
			100*saved, baseObj.Total(), secondObj.Total())
	}
}

// TestNoDuplicateMeasurementsUnderSpeculation is the regression test for
// the pipelined path's duplicate-config double measurement: speculative
// candidates that are measured but never committed used to be re-measured
// when a later iteration (or a peer) probed them again. With the
// measure-once layer every distinct configuration costs at most one real
// objective invocation.
func TestNoDuplicateMeasurementsUnderSpeculation(t *testing.T) {
	sp := layerSpace(t)
	for _, parallel := range []int{4, 8} {
		cache := evalcache.New(0, 0, nil)
		obj := newCounting(quad)
		runKernel(t, sp, obj, &evalcache.Layer{Cache: cache}, parallel)
		if key, n := obj.MaxPerKey(); n > 1 {
			t.Fatalf("parallel=%d: configuration %s measured %d times, want at most once", parallel, key, n)
		}
	}
}

// TestLayerGateFallsBackToMeasurement: when the gate declines, the caller
// measures for real, and Put feeds the truth to the memo and the gate.
func TestLayerGateFallsBackToMeasurement(t *testing.T) {
	sp := layerSpace(t)
	m := evalcache.NewMetrics(obs.NewRegistry())
	layer := &evalcache.Layer{
		Cache: evalcache.New(0, 0, m),
		Gate:  evalcache.NewGate(sp, evalcache.GateOptions{}, m),
	}

	cfg := search.Config{30, 30}
	if _, _, ok := layer.Lookup(cfg); ok {
		t.Fatal("empty layer answered a probe")
	}
	perf := quad(cfg)
	layer.Put(cfg, 0, perf, time.Millisecond)
	// The truth entered both the memo and the gate's record set.
	if got, _, ok := layer.Lookup(cfg); !ok || got != perf {
		t.Fatalf("memo after measure: %v, %v", got, ok)
	}
	if layer.Gate.Len() != 1 {
		t.Fatalf("gate records = %d, want 1", layer.Gate.Len())
	}
}

// TestLayerGateAnswersWhenSupported: once enough nearby truths exist on a
// planar surface, the layer answers with estimated=true and the estimate
// is not deposited into the memo (only truths are).
func TestLayerGateAnswersWhenSupported(t *testing.T) {
	sp := layerSpace(t)
	m := evalcache.NewMetrics(obs.NewRegistry())
	layer := &evalcache.Layer{
		Cache: evalcache.New(0, 0, m),
		Gate:  evalcache.NewGate(sp, evalcache.GateOptions{}, m),
	}
	plane := func(cfg search.Config) float64 { return 4*float64(cfg[0]) - float64(cfg[1]) }
	for _, dx := range []int{-6, -3, 0, 3, 6} {
		for _, dy := range []int{-6, -3, 0, 3, 6} {
			cfg := search.Config{30 + dx, 30 + dy}
			layer.Put(cfg, 0, plane(cfg), 0)
		}
	}
	target := search.Config{31, 29}
	perf, estimated, ok := layer.Lookup(target)
	if !ok || !estimated {
		t.Fatalf("gate-backed lookup = (%v, estimated=%v, ok=%v), want estimated answer", perf, estimated, ok)
	}
	if want := plane(target); math.Abs(perf-want) > 1e-6 {
		t.Fatalf("estimated perf = %v, want %v (planar fit)", perf, want)
	}
	if m.Estimated.Value() == 0 {
		t.Fatal("estimated counter did not move")
	}
	// Estimates never enter the memo.
	if _, ok := layer.Cache.Peek(target.Key()); ok {
		t.Fatal("an estimate was memoized as truth")
	}
}

// TestLayerWarmFill: Fill hydrates memo and gate, and the fill counter
// moves.
func TestLayerWarmFill(t *testing.T) {
	sp := layerSpace(t)
	m := evalcache.NewMetrics(obs.NewRegistry())
	layer := &evalcache.Layer{
		Cache: evalcache.New(0, 0, m),
		Gate:  evalcache.NewGate(sp, evalcache.GateOptions{}, m),
	}
	layer.Fill(search.Config{7, 9}, 123)
	if perf, est, ok := layer.Lookup(search.Config{7, 9}); !ok || est || perf != 123 {
		t.Fatalf("lookup after fill = (%v, %v, %v)", perf, est, ok)
	}
	if m.Fills.Value() != 1 {
		t.Fatalf("fills = %d, want 1", m.Fills.Value())
	}
	if layer.Gate.Len() != 1 {
		t.Fatalf("gate records after fill = %d, want 1", layer.Gate.Len())
	}
}

// batchFunc adapts a function to search.BatchObjective.
type batchFunc func(ps []search.Probe)

func (f batchFunc) Measure(cfg search.Config) float64 {
	ps := []search.Probe{{Config: cfg}}
	f(ps)
	return ps[0].Perf
}

func (f batchFunc) MeasureBatch(ps []search.Probe) { f(ps) }

// TestLayerKeepsMeasurementsOfPanickingBatch: a batch objective that stops
// by panicking (the server's, when its client disconnects) still leaves
// every probe it resolved in the layer; the probes it never reached stay
// unknown.
func TestLayerKeepsMeasurementsOfPanickingBatch(t *testing.T) {
	sp := layerSpace(t)
	layer := &evalcache.Layer{Cache: evalcache.New(0, 0, nil)}
	ev := search.NewEvaluator(sp, batchFunc(func(ps []search.Probe) {
		ps[0].Perf, ps[0].Done = quad(ps[0].Config), true
		panic("client went away")
	}))
	ev.External = layer
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the objective's panic did not reach the caller")
			}
		}()
		ev.EvalBatch([][]float64{{1, 1}, {2, 2}}, 2) //nolint:errcheck
	}()
	if perf, ok := layer.Cache.Peek("1,1"); !ok || perf != quad(search.Config{1, 1}) {
		t.Fatalf("resolved probe in the layer = %v, %v, want its measurement", perf, ok)
	}
	if _, ok := layer.Cache.Peek("2,2"); ok {
		t.Fatal("the unresolved probe was stored")
	}
	if ev.Count() != 1 {
		t.Fatalf("evaluator committed %d measurements, want the resolved 1", ev.Count())
	}
}

// TestLayerMissAllocs pins what one miss through an Evaluator with an
// exact-only Layer allocates: the memo key the layer looks up and the one
// it stores under, and the configuration and memo key the evaluator keeps.
// The layer's memo is one shard whose first slot group is already in use,
// so no map growth counts against a miss.
func TestLayerMissAllocs(t *testing.T) {
	layer := &evalcache.Layer{Cache: evalcache.New(1, 0, nil)}
	layer.Cache.Put("warm", 0, 0)
	ev := search.NewEvaluator(layerSpace(t), search.ObjectiveFunc(quad))
	ev.External = layer
	cfg := search.Config{0, 0}
	miss := func() {
		cfg[0]++
		if _, _, err := ev.EvalConfig(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const want = 4
	if allocs := testing.AllocsPerRun(5, miss); allocs != want {
		t.Errorf("one miss through the layer allocated %v, want %d", allocs, want)
	}
	if n := ev.Count(); n != 6 {
		t.Fatalf("evaluator measured %d configurations, want 6 misses", n)
	}
}
