package core

import (
	"testing"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/sensitivity"
)

// benchSpace is a 4-parameter space with a known interior optimum and one
// irrelevant parameter (index 3).
func benchSpace() (*search.Space, search.Objective) {
	s := search.MustSpace(
		search.Param{Name: "a", Min: 0, Max: 50, Step: 1, Default: 25},
		search.Param{Name: "b", Min: 0, Max: 50, Step: 1, Default: 25},
		search.Param{Name: "c", Min: 0, Max: 50, Step: 1, Default: 25},
		search.Param{Name: "noise", Min: 0, Max: 50, Step: 1, Default: 25},
	)
	target := []float64{30, 15, 40}
	obj := search.ObjectiveFunc(func(cfg search.Config) float64 {
		sum := 0.0
		for i := 0; i < 3; i++ {
			d := float64(cfg[i]) - target[i]
			sum += d * d
		}
		return 500 - sum/10
	})
	return s, obj
}

func TestTunerBasicRun(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	sess, err := tuner.Run(Options{Direction: search.Maximize, MaxEvals: 200, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Result.BestPerf < 490 {
		t.Errorf("best = %v at %v, want >= 490", sess.Result.BestPerf, sess.Result.BestConfig)
	}
	if len(sess.FullBest) != 4 {
		t.Errorf("FullBest = %v, want full-space config", sess.FullBest)
	}
}

func TestTunerWithPriorities(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	// Tune only parameters 0 and 2; 1 and 3 stay at defaults.
	sess, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   150,
		Improved:   true,
		Priorities: []int{0, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Space.Dim() != 2 {
		t.Fatalf("searched space dim = %d, want 2", sess.Space.Dim())
	}
	full := sess.FullBest
	if full[1] != 25 || full[3] != 25 {
		t.Errorf("non-prioritized params moved: %v", full)
	}
	// Optimal restricted perf: b stays at 25 (d=10 → -10): 500 - 10 = 490.
	if sess.Result.BestPerf < 480 {
		t.Errorf("restricted best = %v, want >= 480", sess.Result.BestPerf)
	}
}

func TestTunerPrioritiesValidation(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	if _, err := tuner.Run(Options{Priorities: []int{99}}); err == nil {
		t.Error("bad priority index accepted")
	}
}

func TestTunerTrainingWarmStart(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)

	// Build an experience whose best records sit at the optimum.
	exp := &history.Experience{Label: "warm", Direction: search.Maximize}
	for _, cfg := range []search.Config{
		{30, 15, 40, 25}, {31, 15, 40, 25}, {30, 16, 40, 25}, {30, 15, 41, 25}, {0, 0, 0, 0},
	} {
		exp.AddRecord(cfg, obj.Measure(cfg))
	}

	cold, err := tuner.Run(Options{Direction: search.Maximize, MaxEvals: 120, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   120,
		Improved:   true,
		Experience: exp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.TrainingUsed == 0 {
		t.Fatal("training stage unused")
	}
	// Warm start must converge in no more iterations than cold start.
	wc := warm.Result.Trace.ConvergenceIteration(search.Maximize, 0.01)
	cc := cold.Result.Trace.ConvergenceIteration(search.Maximize, 0.01)
	if wc > cc {
		t.Errorf("warm convergence %d > cold %d", wc, cc)
	}
	// And its first exploration is already near-optimal (no initial bad
	// oscillation).
	if warm.Result.Trace[0].Perf < 450 {
		t.Errorf("warm first exploration perf = %v, want >= 450", warm.Result.Trace[0].Perf)
	}
}

func TestTunerTrainingWithSparseHistory(t *testing.T) {
	// One historical record: estimation must fill the remaining vertices
	// without error.
	s, obj := benchSpace()
	tuner := New(s, obj)
	exp := &history.Experience{Label: "sparse", Direction: search.Maximize}
	exp.AddRecord(search.Config{30, 15, 40, 25}, obj.Measure(search.Config{30, 15, 40, 25}))
	sess, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   100,
		Improved:   true,
		Experience: exp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.TrainingUsed == 0 {
		t.Error("sparse history not used")
	}
	if sess.Result.BestPerf < 450 {
		t.Errorf("sparse warm start best = %v", sess.Result.BestPerf)
	}
}

func TestTunerTrainingWrongDimensionRecordsIgnored(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	exp := &history.Experience{Label: "bad", Direction: search.Maximize}
	exp.AddRecord(search.Config{1, 2}, 10) // wrong dimensionality
	sess, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   80,
		Experience: exp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.TrainingUsed != 0 {
		t.Errorf("TrainingUsed = %d, want 0 for unusable records", sess.TrainingUsed)
	}
}

func TestTunerTrainingProjectsOntoPriorities(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	exp := &history.Experience{Label: "proj", Direction: search.Maximize}
	exp.AddRecord(search.Config{30, 15, 40, 25}, 500)
	exp.AddRecord(search.Config{10, 15, 20, 25}, 300)
	sess, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   80,
		Priorities: []int{0, 2},
		Experience: exp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.TrainingUsed == 0 {
		t.Error("projected training unused")
	}
	if sess.Space.Dim() != 2 {
		t.Errorf("space dim = %d", sess.Space.Dim())
	}
}

func TestPrioritizePipeline(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	rep, err := tuner.Prioritize(sensitivity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The irrelevant parameter (index 3) must rank last.
	rank := rep.Ranking()
	if rank[len(rank)-1] != 3 {
		t.Errorf("ranking = %v, want 3 last", rank)
	}
	// Tuning the top-3 must reach the optimum.
	sess, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   200,
		Improved:   true,
		Priorities: rep.TopN(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Result.BestPerf < 490 {
		t.Errorf("top-3 tuned best = %v", sess.Result.BestPerf)
	}
}

func TestCharacterize(t *testing.T) {
	i := 0
	samples := [][]float64{{1, 0}, {0, 1}, {1, 1}, {0, 0}}
	got := Characterize(4, func() []float64 {
		s := samples[i%len(samples)]
		i++
		return s
	})
	if len(got) != 2 || got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("Characterize = %v, want [0.5 0.5]", got)
	}
	if Characterize(0, nil) != nil {
		t.Error("Characterize(0) should be nil")
	}
}

func TestSessionMetrics(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	sess, err := tuner.Run(Options{Direction: search.Maximize, MaxEvals: 100, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	m := sess.Metrics(0.01, 5, 0.5)
	if m.BestPerf != sess.Result.BestPerf {
		t.Errorf("BestPerf mismatch")
	}
	if m.ConvergenceIter <= 0 || m.ConvergenceIter > m.Evals {
		t.Errorf("ConvergenceIter = %d of %d evals", m.ConvergenceIter, m.Evals)
	}
	if m.WorstPerf > m.BestPerf {
		t.Errorf("worst %v > best %v", m.WorstPerf, m.BestPerf)
	}
	if m.InitialMean == 0 && m.InitialStdDev == 0 {
		t.Error("initial window stats empty")
	}
}

func TestImprovedKernelReducesWorstCase(t *testing.T) {
	// The §4.1 claim on the tuner level: the improved initial exploration
	// never probes the terrible extreme corners.
	s, obj := benchSpace()
	tuner := New(s, obj)
	orig, err := tuner.Run(Options{Direction: search.Maximize, MaxEvals: 150})
	if err != nil {
		t.Fatal(err)
	}
	impr, err := tuner.Run(Options{Direction: search.Maximize, MaxEvals: 150, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	om := orig.Metrics(0.01, 10, 0.5)
	im := impr.Metrics(0.01, 10, 0.5)
	if im.WorstPerf < om.WorstPerf {
		t.Errorf("improved worst %v < original worst %v", im.WorstPerf, om.WorstPerf)
	}
	if im.InitialMean < om.InitialMean {
		t.Errorf("improved initial mean %v < original %v", im.InitialMean, om.InitialMean)
	}
}

func TestTunerPowellKernel(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	sess, err := tuner.Run(Options{
		Direction: search.Maximize,
		MaxEvals:  300,
		Kernel:    KernelPowell,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Result.BestPerf < 480 {
		t.Errorf("Powell kernel best = %v at %v", sess.Result.BestPerf, sess.Result.BestConfig)
	}
	if sess.TrainingUsed != 0 {
		t.Errorf("Powell kernel reported training use: %d", sess.TrainingUsed)
	}
}

func TestTunerPowellKernelWithPriorities(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	sess, err := tuner.Run(Options{
		Direction:  search.Maximize,
		MaxEvals:   200,
		Kernel:     KernelPowell,
		Priorities: []int{0, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Space.Dim() != 2 {
		t.Fatalf("searched dim = %d", sess.Space.Dim())
	}
	if sess.FullBest[1] != 25 || sess.FullBest[3] != 25 {
		t.Errorf("non-prioritized params moved: %v", sess.FullBest)
	}
}

func TestTunerRestartsAndParallel(t *testing.T) {
	s, obj := benchSpace()
	tuner := New(s, obj)
	sess, err := tuner.Run(Options{
		Direction: search.Maximize,
		MaxEvals:  250,
		Improved:  true,
		Restarts:  2,
		Parallel:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Result.BestPerf < 495 {
		t.Errorf("restarted parallel best = %v", sess.Result.BestPerf)
	}
	if sess.Result.Evals > 250 {
		t.Errorf("budget exceeded: %d", sess.Result.Evals)
	}
}
