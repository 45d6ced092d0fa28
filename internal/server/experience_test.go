package server

import (
	"sync"
	"testing"
	"time"

	"harmony/internal/expdb"
	"harmony/internal/rsl"
	"harmony/internal/search"
)

// quadMeasure builds a measure function peaking at the given point with
// run counting.
func quadMeasure(px, py int, count *int) func(search.Config) float64 {
	return func(cfg search.Config) float64 {
		*count++
		dx, dy := float64(cfg[0]-px), float64(cfg[1]-py)
		return 1000 - dx*dx - dy*dy
	}
}

func TestCrossSessionWarmStart(t *testing.T) {
	_, addr := startServer(t)
	chars := []float64{0.8, 0.2}

	// Session 1: cold. Deposits its experience.
	c1 := dial(t, addr)
	if _, err := c1.Register(quadRSL, RegisterOptions{
		MaxEvals: 150, Improved: true, App: "shop", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if c1.WarmStarted() {
		t.Error("first session reported warm start")
	}
	cold := 0
	bestCold, err := c1.Tune(quadMeasure(20, 45, &cold))
	if err != nil {
		t.Fatal(err)
	}

	// Session 2: same app, same spec, similar characteristics → warm.
	c2 := dial(t, addr)
	if _, err := c2.Register(quadRSL, RegisterOptions{
		MaxEvals: 150, Improved: true, App: "shop",
		Characteristics: []float64{0.78, 0.22},
	}); err != nil {
		t.Fatal(err)
	}
	if !c2.WarmStarted() {
		t.Fatal("second session not warm-started")
	}
	warm := 0
	bestWarm, err := c2.Tune(quadMeasure(20, 45, &warm))
	if err != nil {
		t.Fatal(err)
	}

	if warm >= cold {
		t.Errorf("warm session used %d measurements, cold used %d", warm, cold)
	}
	if bestWarm.Perf < bestCold.Perf-20 {
		t.Errorf("warm best %v much worse than cold best %v", bestWarm.Perf, bestCold.Perf)
	}
}

func TestNoCharacteristicsNoExperience(t *testing.T) {
	_, addr := startServer(t)
	run := func() bool {
		c := dial(t, addr)
		if _, err := c.Register(quadRSL, RegisterOptions{
			MaxEvals: 60, Improved: true, App: "anon",
		}); err != nil {
			t.Fatal(err)
		}
		n := 0
		if _, err := c.Tune(quadMeasure(10, 10, &n)); err != nil {
			t.Fatal(err)
		}
		return c.WarmStarted()
	}
	if run() {
		t.Error("characteristic-free session warm-started")
	}
	if run() {
		t.Error("second characteristic-free session warm-started")
	}
}

func TestDifferentSpecDoesNotShareExperience(t *testing.T) {
	_, addr := startServer(t)
	chars := []float64{1, 0}

	c1 := dial(t, addr)
	if _, err := c1.Register(quadRSL, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "app", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := c1.Tune(quadMeasure(5, 5, &n)); err != nil {
		t.Fatal(err)
	}

	// Same app, different spec: the stored simplex would be meaningless.
	other := `
{ harmonyBundle a { int {0 30 1} } }
{ harmonyBundle b { int {0 30 1} } }
`
	c2 := dial(t, addr)
	if _, err := c2.Register(other, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "app", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if c2.WarmStarted() {
		t.Error("session with a different spec warm-started from foreign experience")
	}
}

func TestRestrictedSpecExperienceRoundTrip(t *testing.T) {
	// Experience for restricted specs lives in adapter coordinates; a
	// second session must warm-start without ever proposing an infeasible
	// configuration.
	_, addr := startServer(t)
	restricted := `
{ harmonyBundle B { int {1 8 1} } }
{ harmonyBundle C { int {1 9-$B 1} } }
`
	chars := []float64{0.5, 0.5}
	measure := func(cfg search.Config) float64 {
		if cfg[0]+cfg[1] > 9 {
			t.Fatalf("infeasible configuration proposed: %v", cfg)
		}
		db, dc := float64(cfg[0]-4), float64(cfg[1]-5)
		return 100 - db*db - dc*dc
	}

	c1 := dial(t, addr)
	if _, err := c1.Register(restricted, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "matrix", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Tune(measure); err != nil {
		t.Fatal(err)
	}

	c2 := dial(t, addr)
	if _, err := c2.Register(restricted, RegisterOptions{
		MaxEvals: 80, Improved: true, App: "matrix", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if !c2.WarmStarted() {
		t.Fatal("restricted second session not warm-started")
	}
	best, err := c2.Tune(measure)
	if err != nil {
		t.Fatal(err)
	}
	if best.Values[0]+best.Values[1] > 9 {
		t.Errorf("warm-started best infeasible: %v", best.Values)
	}
	if best.Perf < 95 {
		t.Errorf("warm-started best = %+v", best)
	}
}

func TestConcurrentExperienceAccess(t *testing.T) {
	// Hammer the store from parallel sessions; run under -race.
	_, addr := startServer(t)
	done := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			if _, err := c.Register(quadRSL, RegisterOptions{
				MaxEvals: 60, Improved: true, App: "racer",
				Characteristics: []float64{float64(i % 2), 1},
			}); err != nil {
				done <- err
				return
			}
			n := 0
			_, err = c.Tune(quadMeasure(10+i, 20, &n))
			done <- err
		}(i)
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestCompactedExperienceSeedsDistinctVertices deposits one trace twice
// under identical characteristics. Compaction merges the two experiences by
// appending their records, so every configuration appears twice in the
// match; the warm simplex must still get dim+1 affinely distinct vertices.
func TestCompactedExperienceSeedsDistinctVertices(t *testing.T) {
	store := expdb.NewMemory(expdb.Options{CompactAbove: 1})
	var mu sync.Mutex
	var initial []search.Config // the warm session's first dim+1 evaluations
	_, addr := startServerWith(t, func(s *Server) {
		s.Experience = NewDurableStore(store, nil)
		s.Tracer = search.TracerFunc(func(e search.Event) {
			mu.Lock()
			defer mu.Unlock()
			if e.Type == search.EventEval && len(initial) < 3 {
				initial = append(initial, e.Config)
			}
		})
	})
	spec, err := rsl.Parse(quadRSL)
	if err != nil {
		t.Fatal(err)
	}
	key := specKey("shop", spec)
	chars := []float64{0.8, 0.2}
	tr := search.Trace{
		{Index: 0, Config: search.Config{20, 45}, Perf: 1000},
		{Index: 1, Config: search.Config{21, 45}, Perf: 999},
		{Index: 2, Config: search.Config{20, 40}, Perf: 975},
	}
	for i := 0; i < 2; i++ {
		if ok, err := store.Deposit(key, key, chars, search.Maximize, tr); !ok || err != nil {
			t.Fatalf("deposit %d = %v, %v", i, ok, err)
		}
	}
	if n := store.NamespaceLen(key); n != 1 {
		t.Fatalf("namespace holds %d experiences, want the 2 deposits compacted into 1", n)
	}

	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{
		MaxEvals: 60, Improved: true, App: "shop", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WarmStarted() {
		t.Fatal("session not warm-started from the compacted experience")
	}
	n := 0
	if _, err := c.Tune(quadMeasure(20, 45, &n)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(initial) != 3 {
		t.Fatalf("initial simplex = %v, want 3 vertices", initial)
	}
	a, b, o := initial[1], initial[2], initial[0]
	cross := (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
	if cross == 0 {
		t.Errorf("initial simplex %v is degenerate", initial)
	}
}
