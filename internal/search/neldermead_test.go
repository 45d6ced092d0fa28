package search

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"harmony/internal/stats"
)

// quadSpace is a 3-parameter space whose objective peaks at an interior
// point — the shape the paper says real systems have (§4.1).
func quadSpace() (*Space, Objective) {
	s := MustSpace(
		Param{Name: "x", Min: 0, Max: 100, Step: 1, Default: 50},
		Param{Name: "y", Min: 0, Max: 100, Step: 1, Default: 50},
		Param{Name: "z", Min: 0, Max: 100, Step: 1, Default: 50},
	)
	target := []float64{60, 30, 75}
	obj := ObjectiveFunc(func(c Config) float64 {
		sum := 0.0
		for i, v := range c {
			d := float64(v) - target[i]
			sum += d * d
		}
		return 1000 - sum/10
	})
	return s, obj
}

func TestNelderMeadFindsInteriorOptimum(t *testing.T) {
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize,
		MaxEvals:  300,
		Init:      DistributedInit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Optimum perf is 1000 at (60, 30, 75); require close.
	if res.BestPerf < 990 {
		t.Errorf("BestPerf = %v at %v, want >= 990", res.BestPerf, res.BestConfig)
	}
	if res.Evals != len(res.Trace) {
		t.Errorf("Evals = %d, trace len = %d", res.Evals, len(res.Trace))
	}
}

func TestNelderMeadMinimize(t *testing.T) {
	s := MustSpace(
		Param{Name: "x", Min: -50, Max: 50, Step: 1, Default: 40},
		Param{Name: "y", Min: -50, Max: 50, Step: 1, Default: 40},
	)
	obj := ObjectiveFunc(func(c Config) float64 {
		dx, dy := float64(c[0]-7), float64(c[1]+11)
		return dx*dx + dy*dy
	})
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Minimize,
		MaxEvals:  300,
		Init:      DistributedInit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPerf > 10 {
		t.Errorf("BestPerf = %v at %v, want near 0 (optimum (7,-11))", res.BestPerf, res.BestConfig)
	}
}

func TestNelderMeadRespectsBudget(t *testing.T) {
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize,
		MaxEvals:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals > 10 {
		t.Errorf("Evals = %d, want <= 10", res.Evals)
	}
}

func TestNelderMeadBudgetSmallerThanSimplex(t *testing.T) {
	// Budget smaller than dim+1: the search must still return gracefully
	// with the best of the measured vertices.
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{Direction: Maximize, MaxEvals: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 2 || len(res.BestConfig) == 0 {
		t.Errorf("Evals = %d BestConfig = %v", res.Evals, res.BestConfig)
	}
	if res.Converged {
		t.Error("truncated run reported convergence")
	}
}

func TestNelderMeadAllConfigsInSpace(t *testing.T) {
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{Direction: Maximize, MaxEvals: 150})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace {
		if !s.Contains(e.Config) {
			t.Fatalf("trace contains off-grid config %v", e.Config)
		}
	}
}

func TestNelderMeadBestIsMonotoneOverTrace(t *testing.T) {
	// Best-so-far must equal the reported best at the end.
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{Direction: Maximize, MaxEvals: 150})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(-1)
	for _, e := range res.Trace {
		if e.Perf > best {
			best = e.Perf
		}
	}
	if best != res.BestPerf {
		t.Errorf("trace best %v != result best %v", best, res.BestPerf)
	}
}

func TestExtremeInitShape(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 1, Max: 9, Step: 1, Default: 5},
		Param{Name: "b", Min: 10, Max: 20, Step: 1, Default: 15},
	)
	pts := ExtremeInit{}.Initial(s)
	if len(pts) != 3 {
		t.Fatalf("got %d vertices, want 3", len(pts))
	}
	// Vertex 0 at the minimum corner.
	if pts[0][0] != 1 || pts[0][1] != 10 {
		t.Errorf("vertex 0 = %v, want [1 10]", pts[0])
	}
	// Every vertex touches only extreme values.
	for i, pt := range pts {
		for j, v := range pt {
			p := s.Params[j]
			if v != float64(p.Min) && v != float64(p.Max) {
				t.Errorf("vertex %d param %d = %v is not extreme", i, j, v)
			}
		}
	}
}

func TestDistributedInitAvoidsExtremes(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 100, Step: 1, Default: 50},
		Param{Name: "b", Min: 0, Max: 100, Step: 1, Default: 50},
		Param{Name: "c", Min: 0, Max: 100, Step: 1, Default: 50},
	)
	pts := DistributedInit{}.Initial(s)
	if len(pts) != 4 {
		t.Fatalf("got %d vertices, want 4", len(pts))
	}
	for i, pt := range pts {
		for j, v := range pt {
			p := s.Params[j]
			if v <= float64(p.Min) || v >= float64(p.Max) {
				t.Errorf("vertex %d param %d = %v touches an extreme", i, j, v)
			}
		}
	}
}

func TestDistributedInitCoversEachParameterEvenly(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 90, Step: 1, Default: 0},
		Param{Name: "b", Min: 0, Max: 90, Step: 1, Default: 0},
	)
	pts := DistributedInit{}.Initial(s)
	// Each parameter must take 3 distinct evenly spaced levels across the
	// 3 vertices (dim+1 = 3 levels at fractions 1/6, 3/6, 5/6 → 15, 45, 75).
	for j := 0; j < 2; j++ {
		levels := map[float64]bool{}
		for _, pt := range pts {
			levels[pt[j]] = true
		}
		for _, want := range []float64{15, 45, 75} {
			if !levels[want] {
				t.Errorf("param %d levels = %v, missing %v", j, levels, want)
			}
		}
	}
}

func TestDistributedInitNonDegenerateProperty(t *testing.T) {
	// For arbitrary dimensionality, the simplex must be affinely independent:
	// the volume (determinant of edge vectors) must be non-zero.
	f := func(dims uint8) bool {
		dim := 2 + int(dims)%5 // 2..6
		params := make([]Param, dim)
		for i := range params {
			params[i] = Param{Name: "p" + itoa(i), Min: 0, Max: 1000, Step: 1, Default: 0}
		}
		s := MustSpace(params...)
		pts := DistributedInit{}.Initial(s)
		// Build edge matrix and compute rank via Gaussian elimination.
		m := make([][]float64, dim)
		for i := 0; i < dim; i++ {
			m[i] = make([]float64, dim)
			for j := 0; j < dim; j++ {
				m[i][j] = pts[i+1][j] - pts[0][j]
			}
		}
		return rank(m) == dim
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// rank computes the numerical rank of a small dense matrix.
func rank(m [][]float64) int {
	rows := len(m)
	if rows == 0 {
		return 0
	}
	cols := len(m[0])
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		pivot := r
		for i := r + 1; i < rows; i++ {
			if math.Abs(m[i][c]) > math.Abs(m[pivot][c]) {
				pivot = i
			}
		}
		if math.Abs(m[pivot][c]) < 1e-9 {
			continue
		}
		m[r], m[pivot] = m[pivot], m[r]
		for i := r + 1; i < rows; i++ {
			f := m[i][c] / m[r][c]
			for j := c; j < cols; j++ {
				m[i][j] -= f * m[r][j]
			}
		}
		r++
	}
	return r
}

func TestSeededInit(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 10, Step: 1, Default: 5},
		Param{Name: "b", Min: 0, Max: 10, Step: 1, Default: 5},
	)
	seeds := [][]float64{{3, 4}, {7, 7, 7} /* wrong dim, skipped */, {6, 2}}
	init := SeededInit{Seeds: seeds, Fallback: DistributedInit{}}
	pts := init.Initial(s)
	if len(pts) != 3 {
		t.Fatalf("got %d vertices, want 3", len(pts))
	}
	if pts[0][0] != 3 || pts[0][1] != 4 {
		t.Errorf("vertex 0 = %v, want seed [3 4]", pts[0])
	}
	if pts[1][0] != 6 || pts[1][1] != 2 {
		t.Errorf("vertex 1 = %v, want seed [6 2]", pts[1])
	}
}

func TestSeededInitTruncatesExtraSeeds(t *testing.T) {
	s := MustSpace(Param{Name: "a", Min: 0, Max: 10, Step: 1, Default: 5})
	init := SeededInit{
		Seeds:    [][]float64{{1}, {2}, {3}, {4}},
		Fallback: ExtremeInit{},
	}
	pts := init.Initial(s)
	if len(pts) != 2 {
		t.Fatalf("got %d vertices, want 2 (dim+1)", len(pts))
	}
}

func TestSeededInitSkipsDuplicateFallback(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 10, Step: 1, Default: 5},
		Param{Name: "b", Min: 0, Max: 10, Step: 1, Default: 5},
	)
	// Seed equal to the first extreme vertex: fallback must not duplicate it.
	init := SeededInit{Seeds: [][]float64{{0, 0}}, Fallback: ExtremeInit{}}
	pts := init.Initial(s)
	if len(pts) != 3 {
		t.Fatalf("got %d vertices, want 3", len(pts))
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i][0] == pts[j][0] && pts[i][1] == pts[j][1] {
				t.Errorf("duplicate vertices %d and %d: %v", i, j, pts[i])
			}
		}
	}
}

func TestSeededInitSkipsRepeatedSeeds(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 60, Step: 1, Default: 5},
		Param{Name: "b", Min: 0, Max: 60, Step: 1, Default: 5},
	)
	// Two merged copies of one experience repeat every configuration.
	init := SeededInit{Seeds: [][]float64{{20, 45}, {20, 45}, {21, 45}, {21, 45}}, Fallback: DistributedInit{}}
	pts := init.Initial(s)
	if len(pts) != 3 {
		t.Fatalf("got %d vertices, want 3", len(pts))
	}
	if pts[0][0] != 20 || pts[1][0] != 21 {
		t.Errorf("seeded vertices = %v, want [20 45] then [21 45]", pts[:2])
	}
	if containsPoint(pts[:2], pts[2]) {
		t.Errorf("fallback vertex %v repeats a seed", pts[2])
	}
}

func TestNelderMeadImprovedBeatsOriginalOnInteriorOptimum(t *testing.T) {
	// The paper's core §4.1 claim, on a clean interior-optimum surface: the
	// distributed initial simplex explores fewer terrible configurations.
	s, obj := quadSpace()
	orig, err := NelderMead(s, obj, NelderMeadOptions{Direction: Maximize, MaxEvals: 200, Init: ExtremeInit{}})
	if err != nil {
		t.Fatal(err)
	}
	impr, err := NelderMead(s, obj, NelderMeadOptions{Direction: Maximize, MaxEvals: 200, Init: DistributedInit{}})
	if err != nil {
		t.Fatal(err)
	}
	if impr.Trace.Worst(Maximize).Perf < orig.Trace.Worst(Maximize).Perf {
		t.Errorf("improved kernel worst %v is worse than original worst %v",
			impr.Trace.Worst(Maximize).Perf, orig.Trace.Worst(Maximize).Perf)
	}
	// The improved kernel should land near-optimal; the original may stop at
	// a noticeably worse point (that is the paper's point), but must still
	// have made clear progress from the worst corner.
	if impr.BestPerf < 950 {
		t.Errorf("improved best perf too low: %v", impr.BestPerf)
	}
	if orig.BestPerf < 800 {
		t.Errorf("original best perf too low: %v", orig.BestPerf)
	}
}

func TestNelderMeadWithEvaluatorSeededHistory(t *testing.T) {
	s, obj := quadSpace()
	ev := NewEvaluator(s, obj)
	// The near-optimal region is historical knowledge: it seeds the
	// simplex and is measured like any other vertex.
	opts := NelderMeadOptions{
		Direction: Maximize,
		MaxEvals:  50,
		Init: SeededInit{
			Seeds:    [][]float64{{60, 30, 75}},
			Fallback: DistributedInit{},
		},
	}
	res, err := NelderMeadWithEvaluator(s, ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPerf < 990 {
		t.Errorf("warm-started BestPerf = %v, want ~1000", res.BestPerf)
	}
	if first := res.Trace[0].Config; !first.Equal(Config{60, 30, 75}) {
		t.Errorf("first measurement = %v, want the seed [60 30 75]", first)
	}
}

func TestExhaustive(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 4, Step: 1, Default: 0},
		Param{Name: "b", Min: 0, Max: 4, Step: 1, Default: 0},
	)
	obj := ObjectiveFunc(func(c Config) float64 { return float64(c[0]*10 + c[1]) })
	res, err := Exhaustive(s, obj, Maximize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 25 {
		t.Errorf("Evals = %d, want 25", res.Evals)
	}
	if !res.BestConfig.Equal(Config{4, 4}) || res.BestPerf != 44 {
		t.Errorf("best = %v %v, want [4 4] 44", res.BestConfig, res.BestPerf)
	}
}

func TestExhaustiveRefusesHugeSpaces(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 999, Step: 1, Default: 0},
		Param{Name: "b", Min: 0, Max: 999, Step: 1, Default: 0},
		Param{Name: "c", Min: 0, Max: 999, Step: 1, Default: 0},
	)
	if _, err := Exhaustive(s, ObjectiveFunc(func(c Config) float64 { return 0 }), Maximize, 1000); err == nil {
		t.Error("huge exhaustive search did not error")
	}
}

func TestRandomSearch(t *testing.T) {
	s, obj := quadSpace()
	rng := stats.NewRNG(99)
	res, err := RandomSearch(s, obj, Maximize, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals == 0 || res.Evals > 50 {
		t.Errorf("Evals = %d, want in (0, 50]", res.Evals)
	}
	for _, e := range res.Trace {
		if !s.Contains(e.Config) {
			t.Fatalf("random config %v off grid", e.Config)
		}
	}
	if _, err := RandomSearch(s, obj, Maximize, 0, rng); err == nil {
		t.Error("n=0 did not error")
	}
}

func TestRandomSearchSmallSpaceTerminates(t *testing.T) {
	s := MustSpace(Param{Name: "a", Min: 0, Max: 1, Step: 1, Default: 0})
	rng := stats.NewRNG(1)
	res, err := RandomSearch(s, ObjectiveFunc(func(c Config) float64 { return float64(c[0]) }), Maximize, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals > 2 {
		t.Errorf("Evals = %d, want <= 2 (space has 2 configs)", res.Evals)
	}
}

func TestNelderMeadRestartsImproveOrMatch(t *testing.T) {
	// A surface with a deceptive ridge: restarts refine the answer.
	s := MustSpace(
		Param{Name: "x", Min: 0, Max: 400, Step: 1, Default: 200},
		Param{Name: "y", Min: 0, Max: 400, Step: 1, Default: 200},
	)
	obj := ObjectiveFunc(func(c Config) float64 {
		u := float64(c[0]+c[1]) - 500
		v := float64(c[0] - c[1] - 60)
		return -(u*u/100 + v*v)
	})
	plain, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 400, Init: DistributedInit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 400, Init: DistributedInit{}, Restarts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.BestPerf < plain.BestPerf {
		t.Errorf("restarted best %v below plain %v", restarted.BestPerf, plain.BestPerf)
	}
	if restarted.Evals > 400 {
		t.Errorf("restarts exceeded budget: %d", restarted.Evals)
	}
}

func TestScaledInitStaysInBoundsAndCentered(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 100, Step: 1, Default: 50},
		Param{Name: "b", Min: 0, Max: 100, Step: 1, Default: 50},
	)
	init := ScaledInit{Center: []float64{90, 10}, Frac: 0.5}
	pts := init.Initial(s)
	if len(pts) != 3 {
		t.Fatalf("got %d vertices", len(pts))
	}
	for _, pt := range pts {
		for j, v := range pt {
			p := s.Params[j]
			if v < float64(p.Min) || v > float64(p.Max) {
				t.Errorf("vertex %v out of bounds", pt)
			}
			// Within the scaled half-span of the center (after clamping).
			if j == 1 && (v < 10-26 || v > 10+26) {
				t.Errorf("vertex coord %v too far from center 10", v)
			}
		}
	}
}

func TestNelderMeadRestartsWithExhaustedBudget(t *testing.T) {
	// When the first run eats the budget, restarts must be a no-op.
	s, obj := quadSpace()
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 8, Restarts: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals > 8 {
		t.Errorf("budget exceeded: %d", res.Evals)
	}
}

// TestNelderMeadRestartSequence pins what the restart loop does for two
// planned restarts: the phase events it announces, the shared trace and
// the evaluation count. The reference spells the same sequence out by
// hand: the first search, then one search per restart from a scaled
// simplex around the incumbent best, the scale halving each time.
func TestNelderMeadRestartSequence(t *testing.T) {
	s, obj := quadSpace()
	tracer := &CollectTracer{}
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 2000, Init: DistributedInit{},
		Restarts: 2, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	type phase struct {
		op   string
		iter int
		perf float64
	}
	var got []phase
	for _, e := range tracer.Events {
		if e.Type == EventPhase {
			got = append(got, phase{e.Op, e.Iter, e.Perf})
		}
	}

	opts := NelderMeadOptions{Direction: Maximize, MaxEvals: 2000, Init: DistributedInit{}}
	opts.fill(s.Dim())
	ev := NewEvaluator(s, obj)
	ev.MaxEvals = opts.MaxEvals
	ref, err := nelderMead(s, ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []phase
	scale := 0.5
	for r := 0; r < 2; r++ {
		if !ref.Converged {
			t.Fatalf("reference search %d did not converge", r)
		}
		want = append(want, phase{"restart", r + 1, ref.BestPerf})
		opts.Init = ScaledInit{Center: s.Continuous(ref.BestConfig), Frac: scale}
		if ref, err = nelderMead(s, ev, opts); err != nil {
			t.Fatal(err)
		}
		scale /= 2
	}

	if len(got) != len(want) {
		t.Fatalf("phase events = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("phase event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if res.Evals != ref.Evals || len(res.Trace) != len(ref.Trace) {
		t.Fatalf("evals = %d (trace %d), reference %d (trace %d)", res.Evals, len(res.Trace), ref.Evals, len(ref.Trace))
	}
	for i := range ref.Trace {
		g, w := res.Trace[i], ref.Trace[i]
		if !slices.Equal(g.Config, w.Config) || g.Perf != w.Perf {
			t.Fatalf("trace[%d] = %v @ %v, reference %v @ %v", i, g.Config, g.Perf, w.Config, w.Perf)
		}
	}
	// Three converged searches in 69 evaluations; a change here moves the
	// reference too, so pin the count itself.
	if res.Evals != 69 {
		t.Errorf("evals = %d, want 69", res.Evals)
	}
}
