package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/expdb"
	"harmony/internal/history"
	"harmony/internal/mfsearch"
	"harmony/internal/rsl"
	"harmony/internal/search"
	"harmony/internal/webservice"
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

// TestSparseExperienceSeedsLikeLibrary: an experience with fewer than dim+1
// records gets the training stage's estimate fill in the daemon as in the
// library. The warm simplex starts where core.Tuner's does, and the
// Hyperband triage draws what an mfsearch run with its prior on
// core.Tuner's seeds draws.
func TestSparseExperienceSeedsLikeLibrary(t *testing.T) {
	spec, err := rsl.Parse(quadRSL)
	if err != nil {
		t.Fatal(err)
	}
	space, err := spec.Static()
	if err != nil {
		t.Fatal(err)
	}
	quad := func(cfg search.Config) float64 { return fidelityQuad(cfg, 1) }
	key, chars := specKey("shop", spec), []float64{0.8, 0.2}
	tr := search.Trace{
		{Index: 0, Config: search.Config{30, 30}, Perf: quad(search.Config{30, 30})},
		{Index: 1, Config: search.Config{10, 50}, Perf: quad(search.Config{10, 50})},
	}

	lib, err := core.New(space, search.ObjectiveFunc(quad)).Run(core.Options{
		MaxEvals: 3, Improved: true, Experience: history.FromTrace("shop", chars, search.Maximize, tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lib.TrainingUsed != 3 {
		t.Fatalf("library seeded %d vertices, want 3: 2 records and 1 estimate", lib.TrainingUsed)
	}
	var seeds []search.Config
	for _, e := range lib.Result.Trace {
		seeds = append(seeds, e.Config)
	}

	// session runs one warm daemon session over the deposited records and
	// returns its committed evaluations.
	session := func(kernel string, measure func(search.Config, float64) float64) []search.Config {
		sink := &eventSink{}
		s, addr := startServerWith(t, func(s *Server) {
			s.SearchKernel = kernel
			s.Tracer = sink
		})
		if !s.ExperienceStore().Record(key, chars, search.Maximize, tr) {
			t.Fatal("experience not stored")
		}
		c := dial(t, addr)
		if _, err := c.Register(quadRSL, RegisterOptions{MaxEvals: 100, Improved: true, App: "shop", Characteristics: chars}); err != nil {
			t.Fatal(err)
		}
		if !c.WarmStarted() {
			t.Fatalf("%s session not warm-started from the sparse experience", kernel)
		}
		if _, err := c.TuneAt(measure); err != nil {
			t.Fatal(err)
		}
		var cfgs []search.Config
		for _, e := range sink.byType(search.EventEval) {
			if e.Index >= 0 && (kernel == KernelSimplex || !search.FullFidelity(e.Fidelity)) {
				cfgs = append(cfgs, e.Config)
			}
		}
		return cfgs
	}

	if got := session(KernelSimplex, func(cfg search.Config, _ float64) float64 { return quad(cfg) }); len(got) < 3 ||
		fmt.Sprint(got[:3]) != fmt.Sprint(seeds) {
		t.Errorf("daemon warm simplex starts %v, library seeds %v", got, seeds)
	}

	ev := search.NewEvaluator(space, search.FidelityObjectiveFunc(fidelityQuad))
	ev.MaxEvals = 100
	if _, err := mfsearch.Run(space, ev, mfsearch.NewPrior(space, seeds), mfsearch.Options{
		Seed:   kernelSeed(key, chars),
		Polish: search.NelderMeadOptions{Init: search.DistributedInit{}, MaxEvals: 100},
	}); err != nil {
		t.Fatal(err)
	}
	var want []search.Config
	for _, e := range ev.Trace() {
		if !search.FullFidelity(e.Fidelity) {
			want = append(want, e.Config)
		}
	}
	if got := session(KernelHyperband, fidelityQuad); len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("daemon Hyperband triage %v, want the library prior's %v", got, want)
	}
}

const wideRSL = `
{ harmonyBundle a { int {0 60 1} } }
{ harmonyBundle b { int {0 60 1} } }
{ harmonyBundle c { int {0 60 1} } }
{ harmonyBundle d { int {0 60 1} } }
`

// TestConfirmedWarmWalkSkipsPolish runs window-4 sessions on a 4-parameter
// space, which take the multi-point kernel. The cold session's walk
// converges with budget left and polishes. The warm session seeds its
// simplex with the cold session's best, so its start confirms the
// experience, and the walk's convergence ends the session: one convergence
// and no polish.
func TestConfirmedWarmWalkSkipsPolish(t *testing.T) {
	sink := &eventSink{}
	_, addr := startServerWith(t, func(s *Server) { s.Tracer = sink })
	measure := func(cfg search.Config) float64 {
		perf := 1000.0
		for i, peak := range []int{20, 45, 30, 10} {
			d := float64(cfg[i] - peak)
			perf -= d * d
		}
		return perf
	}
	run := func() {
		t.Helper()
		c := dial(t, addr)
		if _, err := c.Register(wideRSL, RegisterOptions{
			MaxEvals: 300, Improved: true, Window: 4, App: "shop", Characteristics: []float64{0.8, 0.2},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.TuneParallel(measure, 4); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	run()
	run()
	// The sessions ran one after the other, so their events do too.
	var ids []string
	for _, e := range sink.byType(search.EventEval) {
		if len(ids) == 0 || ids[len(ids)-1] != e.Session {
			ids = append(ids, e.Session)
		}
	}
	if len(ids) != 2 {
		t.Fatalf("sessions in the trace = %q, want 2 in turn", ids)
	}
	cold, warm := ids[0], ids[1]

	for _, c := range []struct {
		id        string
		converges int
		polishes  int
		note      string
	}{
		{cold, 2, 1, "pbest=2 stall=16"},
		{warm, 1, 0, "pbest=2 stall=4 prior-confirmed"},
	} {
		var conv []search.Event
		polishes := 0
		for _, e := range sink.byType(search.EventConverge) {
			if e.Session == c.id {
				conv = append(conv, e)
			}
		}
		for _, e := range sink.byType(search.EventPhase) {
			if e.Session == c.id && e.Op == "polish" {
				polishes++
			}
		}
		if len(conv) != c.converges || polishes != c.polishes {
			t.Errorf("session %s: %d convergences and %d polishes, want %d and %d",
				c.id, len(conv), polishes, c.converges, c.polishes)
		}
		if len(conv) > 0 && !strings.HasSuffix(conv[0].NoteText(), c.note) {
			t.Errorf("session %s walk convergence note %q, want it to end %q", c.id, conv[0].NoteText(), c.note)
		}
	}
}

// TestConfirmedWarmSessionEndsAtFailedContraction runs a window-1 warm
// session, on the sequential kernel, from a deposited experience whose best
// is a spike on a flat surface. The session's start measures the spike, so
// it confirms the experience, and nothing can improve on it: the first
// reflection and contraction both fail. The session ends there instead of
// shrinking, so its client measures less than it did when a shrink followed.
func TestConfirmedWarmSessionEndsAtFailedContraction(t *testing.T) {
	store := expdb.NewMemory(expdb.Options{})
	sink := &eventSink{}
	s, addr := startServerWith(t, func(s *Server) {
		s.Experience = NewDurableStore(store, nil)
		s.Tracer = sink
	})
	spec, err := rsl.Parse(quadRSL)
	if err != nil {
		t.Fatal(err)
	}
	key := specKey("shop", spec)
	chars := []float64{0.8, 0.2}
	tr := search.Trace{
		{Index: 0, Config: search.Config{30, 50}, Perf: 100},
		{Index: 1, Config: search.Config{34, 50}, Perf: 50},
		{Index: 2, Config: search.Config{30, 54}, Perf: 50},
	}
	if ok, err := store.Deposit(key, key, chars, search.Maximize, tr); !ok || err != nil {
		t.Fatalf("deposit = %v, %v", ok, err)
	}

	c := dial(t, addr)
	if _, err := c.Register(quadRSL, RegisterOptions{
		MaxEvals: 60, Improved: true, App: "shop", Characteristics: chars,
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WarmStarted() {
		t.Fatal("session not warm-started")
	}
	if _, err := c.Tune(func(cfg search.Config) float64 {
		if cfg.Equal(search.Config{30, 50}) {
			return 100
		}
		return 50
	}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	var snap SessionSnapshot
	deadline := time.Now().Add(2 * time.Second)
	for snap.Status != StatusCompleted {
		if time.Now().After(deadline) {
			t.Fatal("session never completed")
		}
		time.Sleep(10 * time.Millisecond)
		if snaps := s.SessionSnapshots(); len(snaps) == 1 {
			snap = snaps[0]
		}
	}
	if snap.Converged != "confirmed" {
		t.Errorf("converged = %q, want confirmed", snap.Converged)
	}
	for _, e := range sink.byType(search.EventSimplex) {
		if e.Op == search.OpShrink {
			t.Errorf("trace has a shrink: %+v", e)
		}
	}
	// Before the rule the session shrank three times and its client
	// measured 12 configurations.
	if snap.Measured >= 12 {
		t.Errorf("measured = %d, want fewer than the 12 measured when shrinks followed", snap.Measured)
	}
}

// TestSpecKeyPinned pins the experience namespace keys: durable stores
// persist them, so a change to the canonical spec form or its hashing would
// orphan every namespace in an existing data dir.
func TestSpecKeyPinned(t *testing.T) {
	var web strings.Builder
	for _, p := range webservice.Space().Params {
		fmt.Fprintf(&web, "{ harmonyBundle %s { int {%d %d %d} } }\n", p.Name, p.Min, p.Max, p.Step)
	}
	const restricted = `
{ harmonyBundle A { int {1 4 1} } }
{ harmonyBundle B { int {-$A 2*($A+1) 1} } }
{ harmonyBundle C { int {1 9-$B/2 1} } }
`
	for _, c := range []struct{ app, src, want string }{
		{"quad", quadRSL, "quad/a940a2599676e45d"},
		{"web", web.String(), "web/6e7c95e16e0bc54a"},
		{"", restricted, "/f203e67a885f71d4"},
	} {
		spec, err := rsl.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := specKey(c.app, spec); got != c.want {
			t.Errorf("specKey(%q, %q) = %q, want %q", c.app, spec.Format(), got, c.want)
		}
	}
}
