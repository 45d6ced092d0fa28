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
// does not count against an iteration. One iteration is one sample, so a
// stray allocation by the race detector's runtime would fail it: under
// -race the test still drives the kernel but checks no bound.
func TestSimplexIterationAllocs(t *testing.T) {
	for _, tc := range allocSpaces() {
		t.Run(tc.name, func(t *testing.T) {
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
			var res *Result
			iter, commits := 0, 0
			step := func() {
				if res != nil {
					return
				}
				before := ev.Count()
				res = r.iterate(iter)
				iter++
				commits = ev.Count() - before
			}
			committing, hitOnly := 0, 0
			for {
				allocs := testing.AllocsPerRun(1, step)
				if res != nil {
					break // the iteration that ended the run built its result
				}
				if !raceEnabled && allocs > float64(2*commits) {
					t.Errorf("iteration %d allocated %v with %d committed evaluations, want at most %d",
						iter-1, allocs, commits, 2*commits)
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
