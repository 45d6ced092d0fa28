package search

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEvalBatchSequentialMatchesEval(t *testing.T) {
	s, obj := quadSpace()
	evA := NewEvaluator(s, obj)
	evB := NewEvaluator(s, obj)
	pts := [][]float64{{10, 20, 30}, {40, 50, 60}, {10, 20, 30}, {5, 5, 5}}
	cfgs, perfs, err := evA.EvalBatch(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		cfg, perf, err := evB.Eval(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Equal(cfgs[i]) || perf != perfs[i] {
			t.Fatalf("batch[%d] = %v/%v, sequential %v/%v", i, cfgs[i], perfs[i], cfg, perf)
		}
	}
	// The duplicate point must not cost an extra measurement.
	if evA.Count() != 3 {
		t.Errorf("Count = %d, want 3 (one duplicate)", evA.Count())
	}
}

func TestEvalBatchParallelDeterministic(t *testing.T) {
	s, obj := quadSpace()
	pts := [][]float64{
		{10, 20, 30}, {40, 50, 60}, {70, 10, 90}, {10, 20, 30}, {5, 5, 5},
	}
	serial := NewEvaluator(s, obj)
	sc, sp, err := serial.EvalBatch(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	par := NewEvaluator(s, obj)
	pc, pp, err := par.EvalBatch(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc) != len(pc) {
		t.Fatalf("lengths differ: %d vs %d", len(sc), len(pc))
	}
	for i := range sc {
		if !sc[i].Equal(pc[i]) || sp[i] != pp[i] {
			t.Fatalf("parallel result %d differs: %v/%v vs %v/%v", i, pc[i], pp[i], sc[i], sp[i])
		}
	}
	// The traces must be identical (committed in input order).
	st, pt := serial.Trace(), par.Trace()
	for i := range st {
		if !st[i].Config.Equal(pt[i].Config) {
			t.Fatalf("trace order differs at %d: %v vs %v", i, pt[i].Config, st[i].Config)
		}
	}
}

func TestEvalBatchActuallyConcurrent(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	var inflight, maxInflight int32
	obj := ObjectiveFunc(func(c Config) float64 {
		cur := atomic.AddInt32(&inflight, 1)
		for {
			max := atomic.LoadInt32(&maxInflight)
			if cur <= max || atomic.CompareAndSwapInt32(&maxInflight, max, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		atomic.AddInt32(&inflight, -1)
		return float64(c[0])
	})
	ev := NewEvaluator(s, obj)
	pts := make([][]float64, 8)
	for i := range pts {
		pts[i] = []float64{float64(i * 10)}
	}
	if _, _, err := ev.EvalBatch(pts, 4); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&maxInflight); got < 2 {
		t.Errorf("max concurrent measurements = %d, want >= 2", got)
	}
	if got := atomic.LoadInt32(&maxInflight); got > 4 {
		t.Errorf("max concurrent measurements = %d, want <= 4 workers", got)
	}
}

func TestEvalBatchBudgetTruncation(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 { return float64(c[0]) }))
	ev.MaxEvals = 2
	pts := [][]float64{{1}, {2}, {3}, {4}}
	cfgs, perfs, err := ev.EvalBatch(pts, 3)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if len(cfgs) != 2 || len(perfs) != 2 {
		t.Fatalf("prefix length = %d, want 2", len(cfgs))
	}
	if cfgs[0][0] != 1 || cfgs[1][0] != 2 {
		t.Errorf("prefix = %v, want first two points", cfgs)
	}
	if ev.Count() != 2 {
		t.Errorf("Count = %d, want 2", ev.Count())
	}
}

func TestEvalBatchUsesCache(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	calls := 0
	var mu sync.Mutex
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 {
		mu.Lock()
		calls++
		mu.Unlock()
		return float64(c[0])
	}))
	if _, _, err := ev.EvalConfig(Config{5}); err != nil {
		t.Fatal(err)
	}
	_, _, err := ev.EvalBatch([][]float64{{5}, {6}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (config 5 cached)", calls)
	}
	if ev.Hits() == 0 {
		t.Error("cache hit not counted")
	}
}

func TestSynchronizedSerializes(t *testing.T) {
	var inflight, maxInflight int32
	raw := ObjectiveFunc(func(c Config) float64 {
		cur := atomic.AddInt32(&inflight, 1)
		if cur > atomic.LoadInt32(&maxInflight) {
			atomic.StoreInt32(&maxInflight, cur)
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&inflight, -1)
		return 0
	})
	obj := Synchronized(raw)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obj.Measure(Config{1})
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt32(&maxInflight); got != 1 {
		t.Errorf("max inflight through Synchronized = %d, want 1", got)
	}
}

func TestNelderMeadParallelMatchesSerial(t *testing.T) {
	s, obj := quadSpace()
	serial, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 150, Init: DistributedInit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 150, Init: DistributedInit{}, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial.BestPerf != parallel.BestPerf || !serial.BestConfig.Equal(parallel.BestConfig) {
		t.Errorf("parallel best %v@%v != serial best %v@%v",
			parallel.BestPerf, parallel.BestConfig, serial.BestPerf, serial.BestConfig)
	}
	if serial.Evals != parallel.Evals {
		t.Errorf("parallel evals %d != serial %d", parallel.Evals, serial.Evals)
	}
}

func TestNelderMeadParallelBudgetSmallerThanSimplex(t *testing.T) {
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 2, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 2 || res.Converged {
		t.Errorf("truncated parallel run: evals %d converged %v", res.Evals, res.Converged)
	}
}

// batchRecorder is a BatchObjective that records every batch it is handed
// and resolves its probes in reverse order, optionally stopping (by
// panicking) after `stopAfter` probes of a batch.
type batchRecorder struct {
	batches   [][]int
	stopAfter int
}

func (b *batchRecorder) Measure(cfg Config) float64 { return float64(cfg[0]) }

func (b *batchRecorder) MeasureBatch(ps []Probe) {
	var xs []int
	for _, p := range ps {
		xs = append(xs, p.Config[0])
	}
	b.batches = append(b.batches, xs)
	for n, i := 0, len(ps)-1; i >= 0; n, i = n+1, i-1 {
		if b.stopAfter > 0 && n == b.stopAfter {
			panic(errSentinel)
		}
		ps[i].Perf, ps[i].Done = float64(ps[i].Config[0]), true
	}
}

// TestEvalBatchHandsBatchObjectiveOneCall: a BatchObjective receives every
// configuration a parallel batch needs in one call, in input order, and the
// trace commits in input order however the objective resolved them. A lone
// evaluation is a batch of one.
func TestEvalBatchHandsBatchObjectiveOneCall(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	obj := &batchRecorder{}
	ev := NewEvaluator(s, obj)
	if _, _, err := ev.EvalConfig(Config{7}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.EvalBatch([][]float64{{10}, {20}, {7}, {30}, {20}, {40}}, 2); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{7}, {10, 20, 30, 40}}
	if len(obj.batches) != len(want) {
		t.Fatalf("batches = %v, want %v", obj.batches, want)
	}
	for i := range want {
		if !slices.Equal(obj.batches[i], want[i]) {
			t.Fatalf("batches = %v, want %v", obj.batches, want)
		}
	}
	var got []int
	for _, e := range ev.Trace() {
		got = append(got, e.Config[0])
	}
	if !slices.Equal(got, []int{7, 10, 20, 30, 40}) {
		t.Fatalf("trace order = %v, want input order", got)
	}
}

// TestEvalBatchBatchObjectiveCutShort: when a BatchObjective stops mid-batch
// the probes it resolved are committed in input order before the panic
// reaches the caller.
func TestEvalBatchBatchObjectiveCutShort(t *testing.T) {
	s := MustSpace(Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 0})
	ev := NewEvaluator(s, &batchRecorder{stopAfter: 2})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		ev.EvalBatch([][]float64{{10}, {20}, {30}, {40}}, 4)
	}()
	if recovered != errSentinel {
		t.Fatalf("recovered %v, want the objective's panic", recovered)
	}
	var got []int
	for _, e := range ev.Trace() {
		got = append(got, e.Config[0])
	}
	if !slices.Equal(got, []int{30, 40}) {
		t.Fatalf("trace after the cut = %v, want the reported 30, 40 in input order", got)
	}
}
