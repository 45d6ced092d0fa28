package search

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestSpeculateMeasuresWithoutCommitting: a speculation round calls the
// objective but leaves the evaluator untouched — no budget spend, no trace
// entries, no cache pollution — until EvalSpeculated commits a point.
func TestSpeculateMeasuresWithoutCommitting(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	var mu sync.Mutex
	calls := 0
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 {
		mu.Lock()
		calls++
		mu.Unlock()
		return float64(c[0])
	}))
	ev.MaxEvals = 10

	spec := ev.Speculate([][]float64{{1}, {2}, {3}, {2}}, 4)
	if spec.Len() != 3 {
		t.Errorf("spec.Len() = %d, want 3 (one duplicate coalesced)", spec.Len())
	}
	if calls != 3 {
		t.Errorf("objective calls = %d, want 3", calls)
	}
	if ev.Count() != 0 || len(ev.Trace()) != 0 {
		t.Fatalf("speculation committed: count=%d trace=%d", ev.Count(), len(ev.Trace()))
	}

	// Committing one point spends exactly one budget unit and does not call
	// the objective again.
	cfg, perf, err := ev.EvalSpeculated([]float64{2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg[0] != 2 || perf != 2 {
		t.Errorf("committed %v/%v, want [2]/2", cfg, perf)
	}
	if calls != 3 {
		t.Errorf("commit re-measured: calls = %d, want 3", calls)
	}
	if ev.Count() != 1 {
		t.Errorf("Count = %d, want 1", ev.Count())
	}

	// A point outside the round falls back to a real evaluation.
	if _, perf, err := ev.EvalSpeculated([]float64{9}, spec); err != nil || perf != 9 {
		t.Fatalf("fallback eval: perf=%v err=%v", perf, err)
	}
	if calls != 4 {
		t.Errorf("fallback did not measure: calls = %d, want 4", calls)
	}
}

// TestSpeculateRespectsBudget: candidates beyond the remaining evaluation
// budget are not measured — the sequential kernel could never commit them,
// so speculating on them would be pure waste.
func TestSpeculateRespectsBudget(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	var mu sync.Mutex
	calls := 0
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 {
		mu.Lock()
		calls++
		mu.Unlock()
		return float64(c[0])
	}))
	ev.MaxEvals = 1
	spec := ev.Speculate([][]float64{{1}, {2}, {3}, {4}}, 4)
	if spec.Len() != 1 || calls != 1 {
		t.Errorf("spec.Len()=%d calls=%d, want 1/1 under MaxEvals=1", spec.Len(), calls)
	}
	if _, _, err := ev.EvalSpeculated([]float64{1}, spec); err != nil {
		t.Fatal(err)
	}
	// Budget exhausted: committing another speculated value must refuse.
	spec2 := &Speculation{}
	spec2.add(Config{2}, 2, false)
	if _, _, err := ev.EvalSpeculated([]float64{2}, spec2); !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// TestSpeculativeKernelEventStreamIdentical pins the tentpole determinism
// guarantee at full strength: the speculative parallel kernel must produce
// the exact same typed event stream — evaluations, simplex operations,
// convergence decision, in order — as the sequential kernel, for a
// deterministic objective whose measurement latency is adversarial (later
// candidates finish first).
func TestSpeculativeKernelEventStreamIdentical(t *testing.T) {
	targets := [][]float64{
		{60, 30, 75},
		{5, 95, 40},
		{88, 12, 50},
	}
	for _, target := range targets {
		s := MustSpace(
			Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 50},
			Param{Name: "y", Min: 0, Max: 100, Step: 1, Default: 50},
			Param{Name: "z", Min: 0, Max: 100, Step: 1, Default: 50},
		)
		obj := ObjectiveFunc(func(c Config) float64 {
			sum := 0.0
			for i, v := range c {
				d := float64(v) - target[i]
				sum += d * d
			}
			// Adversarial latency: better points take longer, so speculation
			// completion order inverts probe order.
			time.Sleep(time.Duration(100-int(sum/300)%100) * 10 * time.Microsecond)
			return 1000 - sum/10
		})

		run := func(workers int) ([]Event, *Result) {
			var tr CollectTracer
			res, err := NelderMead(s, obj, NelderMeadOptions{
				Direction: Maximize, MaxEvals: 120, Init: DistributedInit{},
				Parallel: workers, Tracer: &tr,
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return tr.Events, res
		}
		seq, seqRes := run(1)
		par, parRes := run(4)

		if seqRes.BestPerf != parRes.BestPerf || !seqRes.BestConfig.Equal(parRes.BestConfig) {
			t.Fatalf("target %v: parallel best %v@%v != serial %v@%v",
				target, parRes.BestPerf, parRes.BestConfig, seqRes.BestPerf, seqRes.BestConfig)
		}
		if seqRes.Evals != parRes.Evals {
			t.Fatalf("target %v: parallel evals %d != serial %d", target, parRes.Evals, seqRes.Evals)
		}
		if len(seq) != len(par) {
			t.Fatalf("target %v: event counts differ: serial %d, parallel %d", target, len(seq), len(par))
		}
		for i := range seq {
			a, b := seq[i], par[i]
			if a.Type != b.Type || a.Op != b.Op || a.Iter != b.Iter ||
				a.Index != b.Index || a.Perf != b.Perf || a.Cached != b.Cached ||
				!a.Config.Equal(b.Config) {
				t.Fatalf("target %v: event %d differs:\n  serial   %+v\n  parallel %+v", target, i, a, b)
			}
		}
	}
}

// panicObjective panics on one specific configuration value and measures
// everything else.
func panicObjective(panicAt int) Objective {
	return ObjectiveFunc(func(c Config) float64 {
		if c[0] == panicAt {
			panic(errSentinel)
		}
		time.Sleep(time.Millisecond)
		return float64(c[0])
	})
}

var errSentinel = errors.New("measurement goroutine exploded")

// TestEvalBatchWorkerPanicRecovered: a panic inside a parallel measurement
// goroutine must unwind the *caller's* goroutine (the server depends on this
// for partial-trace deposits on disconnect) instead of crashing the process.
// Every cleanly measured point — before *and* after the panicking index — is
// committed in input order: the panic path only fires when a session is
// dying, and the deposited partial trace should keep everything the client
// paid to measure.
func TestEvalBatchWorkerPanicRecovered(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	ev := NewEvaluator(s, panicObjective(30))
	pts := [][]float64{{10}, {20}, {30}, {40}, {50}}

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		ev.EvalBatch(pts, 4)
	}()
	err, ok := recovered.(error)
	if !ok || !errors.Is(err, errSentinel) {
		t.Fatalf("recovered %v, want the objective's panic value", recovered)
	}

	// All clean measurements are committed in input order; only the
	// panicking index is missing.
	tr := ev.Trace()
	want := []int{10, 20, 40, 50}
	if len(tr) != len(want) {
		t.Fatalf("trace after panic = %+v, want the clean results %v", tr, want)
	}
	for i, w := range want {
		if tr[i].Config[0] != w {
			t.Fatalf("trace[%d] = %v, want %d (clean results in input order)", i, tr[i].Config, w)
		}
	}
	// The evaluator is still usable: clean results are cached, new points
	// work.
	if _, perf, err := ev.Eval([]float64{60}); err != nil || perf != 60 {
		t.Fatalf("post-panic eval: perf=%v err=%v", perf, err)
	}
}

// TestSpeculatePanicPropagatesWithoutCommit: a panic during a speculation
// round re-raises on the caller with nothing committed at all (a round that
// never happened).
func TestSpeculatePanicPropagatesWithoutCommit(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	ev := NewEvaluator(s, panicObjective(20))

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		ev.Speculate([][]float64{{10}, {20}, {30}}, 4)
	}()
	err, ok := recovered.(error)
	if !ok || !errors.Is(err, errSentinel) {
		t.Fatalf("recovered %v, want the objective's panic value", recovered)
	}
	if ev.Count() != 0 || len(ev.Trace()) != 0 {
		t.Fatalf("speculation panic committed state: count=%d trace=%d", ev.Count(), len(ev.Trace()))
	}
}
