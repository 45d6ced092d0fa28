package search

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

// runEvents collects the EventSimplex, EventConverge and EventPhase events
// of a run, each kind in order.
type runEvents struct{ ops, conv, phases []Event }

func (r *runEvents) Emit(e Event) {
	switch e.Type {
	case EventSimplex:
		r.ops = append(r.ops, e)
	case EventConverge:
		r.conv = append(r.conv, e)
	case EventPhase:
		r.phases = append(r.phases, e)
	}
}

// optimumSeeds returns a seeded initial simplex whose first vertex is the
// objective's optimum and whose other vertices sit off units away from it
// along one axis each. At -30 no iteration can improve the best vertex and
// the simplex stays far from collapsing within a few iterations; at +1 the
// first reflection and contraction both fail, because the contraction
// rounds back onto the worst vertex.
func optimumSeeds(target []float64, off float64) InitStrategy {
	seeds := [][]float64{append([]float64(nil), target...)}
	for i := range target {
		v := append([]float64(nil), target...)
		v[i] += off
		seeds = append(seeds, v)
	}
	return SeededInit{Seeds: seeds, Fallback: DistributedInit{}}
}

// priorRun runs one search from the simplex seeded 30 units off the
// optimum.
func priorRun(t *testing.T, parallel int, prior *float64, maxStall int) (*Result, runEvents) {
	t.Helper()
	return seededRun(t, parallel, prior, maxStall, -30)
}

// seededRun runs one search from the optimum-seeded simplex whose other
// vertices sit off units away. parallel 1 runs the sequential kernel on the
// 3-parameter space; parallel > 1 runs the multi-point kernel on the
// 8-parameter space, at width p = parallel/2.
func seededRun(t *testing.T, parallel int, prior *float64, maxStall int, off float64) (*Result, runEvents) {
	t.Helper()
	s, obj := quadSpace()
	target := []float64{60, 30, 75}
	if parallel > 1 {
		s, obj = wideSpace()
		target = []float64{60, 30, 75, 20, 45, 80, 10, 55}
	}
	var events runEvents
	res, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize,
		MaxEvals:  400,
		RelTol:    1e-12, // only the stall rule ends the run
		MaxStall:  maxStall,
		PriorBest: prior,
		Init:      optimumSeeds(target, off),
		Parallel:  parallel,
		Tracer:    &events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events.conv) == 0 {
		t.Fatal("no convergence event")
	}
	return res, events
}

// kernelName names a seededRun kernel: the sequential one, the window-4
// multi-point walk (p = 2) and the window-6 one (p = 3).
func kernelName(parallel int) string {
	switch parallel {
	case 1:
		return "sequential"
	case 4:
		return "multipoint"
	}
	return fmt.Sprintf("multipoint-p%d", parallel/2)
}

// stallRounds is the number of stalled steps after which a kernel of
// width p exhausts a horizon counted in vertex updates: a sequential
// iteration updates one vertex, a multi-point round p.
func stallRounds(horizon, p int) int { return (horizon + p - 1) / p }

func TestPriorConfirmedStopsAfterFourStalls(t *testing.T) {
	for _, c := range []struct {
		parallel int
		digest   string // the confirmed walk's trace; none for sequential
	}{
		{1, ""},
		{4, "17/f0131a16537ee24a"},
		{6, "21/a5d05f9ed70d7578"},
	} {
		t.Run(kernelName(c.parallel), func(t *testing.T) {
			prior := 1000.0 // the optimum the first seed sits on
			res, events := priorRun(t, c.parallel, &prior, 0)
			first := events.conv[0]
			// No step improves the optimum the simplex starts on, so every
			// step stalls: p = 1, 2 and 3 stop after 4, 2 and 2 steps.
			p := max(c.parallel/2, 1)
			if want := stallRounds(confirmedStall, p); first.Op != "stall" || first.Iter != want {
				t.Errorf("first convergence = %s at iter %d, want stall at %d", first.Op, first.Iter, want)
			}
			if !strings.HasSuffix(first.NoteText(), "stall=4 prior-confirmed") {
				t.Errorf("note = %q, want the confirmed horizon named", first.NoteText())
			}
			if c.parallel == 1 {
				return
			}
			// A confirmed multi-point walk ends the run at its convergence:
			// no polish follows it.
			if len(events.conv) != 1 || len(events.phases) != 0 {
				t.Errorf("convergences %+v, phases %+v; want the walk's one convergence and no polish",
					events.conv, events.phases)
			}
			if got := traceDigest(res.Trace); got != c.digest {
				t.Errorf("confirmed walk trace digest = %s, want %s", got, c.digest)
			}
			// The prior changes only where the walk stops: its trace is the
			// prefix of the cold walk from the same start.
			cold, _ := priorRun(t, c.parallel, nil, 0)
			if got, want := traceDigest(res.Trace), traceDigest(cold.Trace[:len(res.Trace)]); got != want {
				t.Errorf("confirmed walk trace digest = %s, want the cold walk's prefix %s", got, want)
			}
		})
	}
}

func TestPriorUnconfirmedKeepsColdHorizon(t *testing.T) {
	for _, parallel := range []int{1, 4, 6} {
		t.Run(kernelName(parallel), func(t *testing.T) {
			// The start's best vertex (1000) sits 3% below the prior.
			prior := 1000 / 0.97
			withField, events := priorRun(t, parallel, &prior, 0)
			without, plain := priorRun(t, parallel, nil, 0)
			if got, want := traceDigest(withField.Trace), traceDigest(without.Trace); got != want {
				t.Errorf("trace with an unconfirmed prior differs from a run without one")
			}
			dim := 3
			if parallel > 1 {
				dim = 8
			}
			want := fmt.Sprintf("stall=%d", 4*dim)
			if first := events.conv[0]; first.Iter != plain.conv[0].Iter || !strings.HasSuffix(first.NoteText(), want) {
				t.Errorf("first convergence = iter %d note %q, want iter %d note ending %q",
					first.Iter, first.NoteText(), plain.conv[0].Iter, want)
			}
			// Every step stalls, so the cold horizon of 4·dim vertex updates
			// runs out after 12 sequential iterations, or 16 rounds at p = 2
			// and 11 at p = 3.
			p := max(parallel/2, 1)
			if first, want := plain.conv[0], stallRounds(4*dim, p); first.Op != "stall" || first.Iter != want {
				t.Errorf("cold first convergence = %s at iter %d, want stall at %d", first.Op, first.Iter, want)
			}
		})
	}
}

// TestPriorConfirmedEndsAtFailedContraction seeds both kernels one unit off
// the optimum along each axis, so the first reflection and contraction
// both fail. A run whose start confirms its prior ends there, and its trace
// is the prefix, up to the rejected contraction, of the trace recorded
// before the rule existed. An unconfirmed twin, whose prior is 3% off,
// still shrinks, and its trace is unchanged.
func TestPriorConfirmedEndsAtFailedContraction(t *testing.T) {
	for _, c := range []struct {
		parallel            int
		prefix, unconfirmed string // digests recorded before the rule existed
	}{
		// The sequential run's shrinks re-measure only configurations its
		// trace already holds, so its two digests coincide.
		{1, "5/0bd8bf76ad4229b9", "5/0bd8bf76ad4229b9"},
		{4, "11/5a49ad29f9d131a2", "94/6ab38149c7ec6260"},
	} {
		t.Run(kernelName(c.parallel), func(t *testing.T) {
			shrinks := func(ev runEvents) int {
				n := 0
				for _, e := range ev.ops {
					if e.Op == OpShrink {
						n++
					}
				}
				return n
			}

			prior := 1000.0 // the optimum the first seed sits on
			res, events := seededRun(t, c.parallel, &prior, 0, 1)
			if len(events.conv) != 1 || events.conv[0].Op != "confirmed" || events.conv[0].Iter != 0 ||
				!strings.HasSuffix(events.conv[0].NoteText(), "stall=4 prior-confirmed") {
				t.Errorf("convergences %+v, want one: confirmed at iter 0 with the confirmed horizon named", events.conv)
			}
			if n := shrinks(events); n != 0 || len(events.phases) != 0 {
				t.Errorf("%d shrinks and phases %+v, want neither", n, events.phases)
			}
			if got := traceDigest(res.Trace); got != c.prefix {
				t.Errorf("confirmed trace digest = %s, want %s", got, c.prefix)
			}

			missed := 1000 / 0.97 // the start's best sits 3% below it
			res, events = seededRun(t, c.parallel, &missed, 0, 1)
			if shrinks(events) == 0 || events.conv[0].Op == "confirmed" {
				t.Errorf("unconfirmed run: %d shrinks, first convergence %s; want it to shrink",
					shrinks(events), events.conv[0].Op)
			}
			if got := traceDigest(res.Trace); got != c.unconfirmed {
				t.Errorf("unconfirmed trace digest = %s, want %s", got, c.unconfirmed)
			}
		})
	}
}

func TestPriorCallerMaxStallWins(t *testing.T) {
	prior := 1000.0
	_, events := priorRun(t, 1, &prior, 2)
	if first := events.conv[0]; first.Op != "stall" || first.Iter != 2 || !strings.HasSuffix(first.NoteText(), "stall=2 prior-confirmed") {
		t.Errorf("first convergence = %s at iter %d (%q), want stall at 2", first.Op, first.Iter, first.NoteText())
	}
}

// estimateCache answers one configuration with a gate estimate and lets the
// objective measure everything else.
type estimateCache struct {
	cfg  Config
	perf float64
}

func (c estimateCache) LookupAt(cfg Config, _ float64) (float64, bool, bool) {
	if cfg.Equal(c.cfg) {
		return c.perf, true, true
	}
	return 0, false, false
}

func (estimateCache) Put(Config, float64, float64, time.Duration) {}

func TestPriorGateEstimateNeverConfirms(t *testing.T) {
	s, obj := quadSpace()
	target := []float64{60, 30, 75}
	prior := 1000.0
	ev := NewEvaluator(s, obj)
	ev.MaxEvals = 400
	// The optimum vertex is answered by the gate with its exact value; the
	// measured vertices are all 9% below the prior.
	ev.External = estimateCache{cfg: Config{60, 30, 75}, perf: 1000}
	var events runEvents
	_, err := NelderMeadWithEvaluator(s, ev, NelderMeadOptions{
		Direction: Maximize, RelTol: 1e-12, PriorBest: &prior,
		Init: optimumSeeds(target, -30), Tracer: &events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first := events.conv[0]; strings.Contains(first.NoteText(), "prior-confirmed") || !strings.HasSuffix(first.NoteText(), "stall=12") {
		t.Errorf("note = %q, want the cold horizon: an estimate must not confirm the prior", first.NoteText())
	}
}

func TestEvaluatorTruth(t *testing.T) {
	s, obj := quadSpace()
	ev := NewEvaluator(s, obj)
	ev.External = estimateCache{cfg: Config{1, 1, 1}, perf: 5}
	for _, cfg := range []Config{{1, 1, 1}, {3, 3, 3}} {
		if _, _, err := ev.EvalConfig(cfg); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		cfg  Config
		want bool
	}{
		{Config{1, 1, 1}, false}, // gate estimate
		{Config{3, 3, 3}, true},  // measured
	}
	for _, c := range cases {
		if got := ev.truth(c.cfg); got != c.want {
			t.Errorf("truth(%v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

// traceDigest fingerprints a trace's configurations, values and flags.
func traceDigest(tr Trace) string {
	h := fnv.New64a()
	for _, e := range tr {
		fmt.Fprintf(h, "%v:%v:%v:%v;", e.Config, e.Perf, e.Estimated, e.Fidelity)
	}
	return fmt.Sprintf("%d/%016x", len(tr), h.Sum64())
}

// TestColdTraceUnchanged pins cold trajectories of both kernels, restarts
// included. The digests were recorded before the prior-confirmed horizon
// existed: a session without a prior must not notice it.
func TestColdTraceUnchanged(t *testing.T) {
	s, obj := quadSpace()
	seq, err := NelderMead(s, obj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 300, Init: DistributedInit{}, Restarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ws, wobj := wideSpace()
	multi, err := NelderMead(ws, wobj, NelderMeadOptions{
		Direction: Maximize, MaxEvals: 200, Init: DistributedInit{}, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tr   Trace
		want string
	}{
		{"sequential", seq.Trace, "69/787492ca6de8850b"},
		{"multipoint", multi.Trace, "200/aefa7d8bb53b00e3"},
	} {
		if got := traceDigest(c.tr); got != c.want {
			t.Errorf("%s cold trace digest = %s, want %s", c.name, got, c.want)
		}
	}
}
