package search

import (
	"math"
	"testing"
)

// allocSpaces are the spaces the allocation guards run over: the paper's
// two-parameter running example and a ten-parameter space shaped like the
// web cluster's, each with a cheap smooth objective.
func allocSpaces() []struct {
	name  string
	space *Space
	obj   ObjectiveFunc
} {
	quad := MustSpace(
		Param{Name: "x", Min: 0, Max: 60, Step: 1},
		Param{Name: "y", Min: 0, Max: 60, Step: 1},
	)
	var params []Param
	for i := 0; i < 10; i++ {
		params = append(params, Param{Name: string(rune('a' + i)), Min: 0, Max: 16 * (i + 1), Step: i + 1})
	}
	wide := MustSpace(params...)
	return []struct {
		name  string
		space *Space
		obj   ObjectiveFunc
	}{
		{"quad2", quad, func(cfg Config) float64 {
			dx, dy := float64(cfg[0])-20.3, float64(cfg[1])-45.6 // off the grid
			return 1000 - dx*dx - dy*dy
		}},
		{"smooth10", wide, func(cfg Config) float64 {
			sum := 0.0
			for i, v := range cfg {
				d := float64(v)/float64(16*(i+1)) - 0.3 - 0.04*float64(i)
				sum += d * d
			}
			return 100 * math.Exp(-sum)
		}},
	}
}

// TestSimplexIterationAllocs guards the sequential kernel's steady state:
// an iteration allocates at most 2 per committed evaluation — the
// configuration the evaluator keeps, which its memo, trace entry and
// tracer events share, and its memo key — and nothing when every probe is
// a memo hit. The trace and memo are pre-sized, so their amortized growth
// does not count against an iteration.
//
// One measurement of one iteration can catch an allocation the runtime
// makes on its own account, so the deterministic run is replayed from the
// same start several times in step and each iteration is held to the least
// count its replays show. The race detector's runtime allocates more often
// still: under -race the test drives the kernel but checks no bound.
func TestSimplexIterationAllocs(t *testing.T) {
	const replays = 5
	for _, tc := range allocSpaces() {
		t.Run(tc.name, func(t *testing.T) {
			runs := make([]*simplexRun, replays)
			evs := make([]*Evaluator, replays)
			for k := range runs {
				ev := NewEvaluator(tc.space, tc.obj)
				ev.trace = make(Trace, 0, 1024)
				ev.cache = make(map[string]memo, 1024)
				// A long stall horizon keeps the run going once the simplex
				// has collapsed onto the grid, where probes hit the memo.
				opts := NelderMeadOptions{Init: DistributedInit{}, MaxEvals: 1000, MaxStall: 200, RelTol: 1e-12}
				opts.fill(tc.space.Dim())
				r := newSimplexRun(tc.space, ev, opts, 1, 4)
				if res, err := r.start(); res != nil || err != nil {
					t.Fatalf("start = %v, %v", res, err)
				}
				runs[k], evs[k] = r, ev
			}
			committing, hitOnly := 0, 0
			for iter := 0; ; iter++ {
				least, commits, ended := math.Inf(1), 0, 0
				for k, r := range runs {
					before := evs[k].Count()
					var res *Result
					least = math.Min(least, allocsOf(func() { res = r.iterate(iter) }))
					n := evs[k].Count() - before
					if k > 0 && n != commits {
						t.Fatalf("iteration %d committed %d evaluations in replay %d and %d in replay 0: the run is not deterministic", iter, n, k, commits)
					}
					commits = n
					if res != nil {
						ended++
					}
				}
				if ended == replays {
					break // the iteration that ended the run built its result
				}
				if ended > 0 {
					t.Fatalf("iteration %d ended %d of %d replays", iter, ended, replays)
				}
				if !raceEnabled && least > float64(2*commits) {
					t.Errorf("iteration %d allocated at least %v in each of %d replays with %d committed evaluations, want at most %d",
						iter, least, replays, commits, 2*commits)
				}
				if commits == 0 {
					hitOnly++
				} else {
					committing++
				}
			}
			t.Logf("%d committing and %d memo-hit iterations", committing, hitOnly)
			if committing == 0 || hitOnly == 0 {
				t.Fatalf("measured %d committing and %d memo-hit iterations, want both", committing, hitOnly)
			}
		})
	}
}

// allocsOf reports what one call of f allocates. testing.AllocsPerRun
// calls its function once more to warm up; here that call does nothing, so
// f runs exactly once.
func allocsOf(f func()) float64 {
	warm := true
	return testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		f()
	})
}

// TestEvalMemoHitAllocs guards the evaluator's memo hit: a probe point that
// snaps to a configuration already evaluated allocates nothing, on every
// entry point the kernels use.
func TestEvalMemoHitAllocs(t *testing.T) {
	space := allocSpaces()[0].space
	ev := NewEvaluator(space, ObjectiveFunc(func(Config) float64 { return 1 }))
	pt, cfg := []float64{20.2, 45.9}, Config{20, 46}
	if _, _, err := ev.Eval(pt); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Eval":           func() { ev.Eval(pt) },                //nolint:errcheck
		"EvalSpeculated": func() { ev.EvalSpeculated(pt, nil) }, //nolint:errcheck
		"EvalConfig":     func() { ev.EvalConfig(cfg) },         //nolint:errcheck
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s memo hit allocated %v, want 0", name, allocs)
		}
	}
}
