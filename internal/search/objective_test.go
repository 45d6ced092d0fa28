package search

import (
	"errors"
	"testing"
)

func TestDirectionBetter(t *testing.T) {
	if !Maximize.Better(2, 1) || Maximize.Better(1, 2) || Maximize.Better(1, 1) {
		t.Error("Maximize.Better wrong")
	}
	if !Minimize.Better(1, 2) || Minimize.Better(2, 1) || Minimize.Better(1, 1) {
		t.Error("Minimize.Better wrong")
	}
}

func TestTraceBestWorst(t *testing.T) {
	tr := Trace{
		{Index: 0, Config: Config{1}, Perf: 5},
		{Index: 1, Config: Config{2}, Perf: 9},
		{Index: 2, Config: Config{3}, Perf: 2},
	}
	if got := tr.Best(Maximize); got.Perf != 9 {
		t.Errorf("Best(Maximize) = %v, want 9", got.Perf)
	}
	if got := tr.Best(Minimize); got.Perf != 2 {
		t.Errorf("Best(Minimize) = %v, want 2", got.Perf)
	}
	if got := tr.Worst(Maximize); got.Perf != 2 {
		t.Errorf("Worst(Maximize) = %v, want 2", got.Perf)
	}
	if got := tr.Worst(Minimize); got.Perf != 9 {
		t.Errorf("Worst(Minimize) = %v, want 9", got.Perf)
	}
}

func TestTraceBestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Best on empty trace did not panic")
		}
	}()
	Trace{}.Best(Maximize)
}

func TestConvergenceIteration(t *testing.T) {
	tr := Trace{
		{Perf: 10}, {Perf: 40}, {Perf: 90}, {Perf: 100}, {Perf: 99}, {Perf: 100},
	}
	// Final best is 100; within 1% from iteration 3 (perf 100 at index 3).
	if got := tr.ConvergenceIteration(Maximize, 0.01); got != 4 {
		t.Errorf("ConvergenceIteration = %d, want 4", got)
	}
	// With a loose 15% tolerance, 90 at index 2 already qualifies.
	if got := tr.ConvergenceIteration(Maximize, 0.15); got != 3 {
		t.Errorf("loose ConvergenceIteration = %d, want 3", got)
	}
	if got := (Trace{}).ConvergenceIteration(Maximize, 0.01); got != 0 {
		t.Errorf("empty ConvergenceIteration = %d, want 0", got)
	}
}

func TestConvergenceIterationMinimize(t *testing.T) {
	tr := Trace{{Perf: 100}, {Perf: 20}, {Perf: 10}, {Perf: 10}}
	if got := tr.ConvergenceIteration(Minimize, 0.01); got != 3 {
		t.Errorf("ConvergenceIteration = %d, want 3", got)
	}
}

func TestBadIterations(t *testing.T) {
	tr := Trace{{Perf: 10}, {Perf: 55}, {Perf: 90}, {Perf: 100}, {Perf: 30}}
	// Below 60% of final best (60): perfs 10, 55, 30 → 3 bad iterations.
	if got := tr.BadIterations(Maximize, 0.6); got != 3 {
		t.Errorf("BadIterations = %d, want 3", got)
	}
	if got := (Trace{}).BadIterations(Maximize, 0.6); got != 0 {
		t.Errorf("empty BadIterations = %d, want 0", got)
	}
}

func TestBadIterationsMinimize(t *testing.T) {
	tr := Trace{{Perf: 100}, {Perf: 12}, {Perf: 10}}
	// Best is 10; worse than 10/0.5 = 20: only the 100.
	if got := tr.BadIterations(Minimize, 0.5); got != 1 {
		t.Errorf("BadIterations = %d, want 1", got)
	}
}

func TestInitialWindow(t *testing.T) {
	tr := Trace{{Perf: 1}, {Perf: 2}, {Perf: 3}}
	if got := tr.InitialWindow(2); len(got) != 2 {
		t.Errorf("InitialWindow(2) len = %d", len(got))
	}
	if got := tr.InitialWindow(99); len(got) != 3 {
		t.Errorf("InitialWindow(99) len = %d", len(got))
	}
}

func TestEvaluatorCachingAndTrace(t *testing.T) {
	s := smallSpace(t)
	calls := 0
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 {
		calls++
		return float64(c[0] + c[1])
	}))
	cfg, perf, err := ev.Eval([]float64{4.1, 3.2})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Equal(Config{4, 3}) || perf != 7 {
		t.Fatalf("Eval = %v %v", cfg, perf)
	}
	// Same snapped config: cache hit, no extra call, no trace growth.
	_, _, err = ev.Eval([]float64{3.9, 2.8})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (cache hit expected)", calls)
	}
	if ev.Count() != 1 {
		t.Errorf("Count = %d, want 1", ev.Count())
	}
}

func TestEvaluatorBudget(t *testing.T) {
	s := smallSpace(t)
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 { return 1 }))
	ev.MaxEvals = 2
	mustEval := func(a, b int) {
		if _, _, err := ev.EvalConfig(Config{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	mustEval(0, 1)
	mustEval(2, 1)
	if _, _, err := ev.EvalConfig(Config{4, 1}); !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	// Cached configs are still free after the budget is gone.
	if _, _, err := ev.EvalConfig(Config{0, 1}); err != nil {
		t.Errorf("cached eval after budget errored: %v", err)
	}
}

func TestEvaluatorRejectsOffGrid(t *testing.T) {
	s := smallSpace(t)
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 { return 1 }))
	if _, _, err := ev.EvalConfig(Config{5, 1}); err == nil {
		t.Error("off-grid config accepted")
	}
	if _, _, err := ev.EvalConfig(Config{0}); err == nil {
		t.Error("wrong-dimension config accepted")
	}
}

func TestEvaluatorDisableCache(t *testing.T) {
	s := smallSpace(t)
	calls := 0
	ev := NewEvaluator(s, ObjectiveFunc(func(c Config) float64 {
		calls++
		return float64(calls)
	}))
	ev.DisableCache = true
	ev.EvalConfig(Config{0, 1})
	ev.EvalConfig(Config{0, 1})
	if calls != 2 {
		t.Errorf("calls = %d, want 2 with cache disabled", calls)
	}
}

func TestTracePerfs(t *testing.T) {
	tr := Trace{{Perf: 1.5}, {Perf: 2.5}}
	ps := tr.Perfs()
	if len(ps) != 2 || ps[0] != 1.5 || ps[1] != 2.5 {
		t.Errorf("Perfs = %v", ps)
	}
}
