package mfsearch

import (
	"math"
	"sort"
	"time"

	"harmony/internal/search"
	"harmony/internal/stats"
)

// Scheduler defaults.
const (
	// DefaultEta is the successive-halving factor: each rung keeps the
	// best 1/eta of its candidates at eta× the fidelity.
	DefaultEta = 3.0
	// DefaultMinFidelity is the cheapest rung's measurement fidelity.
	DefaultMinFidelity = 1.0 / 16
	// DefaultMaxFidelity is the top rung's fidelity (full measurements).
	DefaultMaxFidelity = 1.0
)

// Options configure one multi-fidelity search run. The zero value selects
// the defaults.
type Options struct {
	// Eta is the halving factor (default DefaultEta). math.Inf(1)
	// collapses the schedule to a single rung at MaxFidelity with no
	// triage at all: Run degenerates — by construction, not by accident —
	// into plain prior-seeded simplex polish, which the property tests
	// pin as trajectory-identical to search.NelderMeadWithEvaluator over
	// a SeededInit.
	Eta float64
	// SMax is the largest bracket exponent: bracket s runs s+1 rungs
	// starting at fidelity MaxFidelity·Eta^−s. Default (0) derives it
	// from the fidelity range: floor(log(MaxFidelity/MinFidelity)/log(Eta)).
	// Negative means zero brackets of triage (polish only).
	SMax int
	// MinFidelity and MaxFidelity bound rung fidelities (defaults
	// DefaultMinFidelity, DefaultMaxFidelity).
	MinFidelity float64
	MaxFidelity float64
	// Direction states whether the objective is maximized or minimized.
	Direction search.Direction
	// Seed drives candidate sampling. Runs are deterministic in
	// (prior, options, objective).
	Seed uint64
	// Survivors is how many full-fidelity incumbents seed the polish
	// simplex (default dim+1 — a full simplex of warm vertices).
	Survivors int
	// Polish configures the final full-fidelity Nelder–Mead pass. Its
	// Init is overridden with a SeededInit over the triage survivors
	// (falling back to the prior's own seed points when triage was
	// skipped); Direction and Tracer follow the outer options when unset.
	Polish search.NelderMeadOptions
	// Tracer receives EventRung scheduler events (rung open/promote) and
	// EventPhase markers. The evaluator's own tracer covers evaluations.
	Tracer search.Tracer
}

func (o *Options) fill(dim int) {
	if o.Eta == 0 {
		o.Eta = DefaultEta
	}
	if o.MaxFidelity <= 0 || o.MaxFidelity > 1 {
		o.MaxFidelity = DefaultMaxFidelity
	}
	if o.MinFidelity <= 0 || o.MinFidelity > o.MaxFidelity {
		o.MinFidelity = math.Min(DefaultMinFidelity, o.MaxFidelity)
	}
	if math.IsInf(o.Eta, 1) {
		o.SMax = -1 // single full-fidelity rung ⇒ no triage brackets
	} else if o.SMax == 0 {
		o.SMax = int(math.Log(o.MaxFidelity/o.MinFidelity) / math.Log(o.Eta))
	}
	if o.Survivors <= 0 {
		o.Survivors = dim + 1
	}
	if o.Polish.Direction != o.Direction {
		o.Polish.Direction = o.Direction
	}
	if o.Polish.Tracer == nil {
		o.Polish.Tracer = o.Tracer
	}
}

// incumbent is one triage finalist: a configuration with its best
// full-fidelity (top rung) performance.
type incumbent struct {
	cfg  search.Config
	perf float64
}

// Run executes the multi-fidelity schedule against a caller-managed
// evaluator: Hyperband brackets of prior-sampled candidates, successively
// halved at increasing fidelity rungs, then full-fidelity Nelder–Mead
// polish seeded by the surviving incumbents. The evaluator carries the
// budget (MaxEvals), the trace, the tracer and any external eval-cache
// layer across both phases. Exhausting the budget during triage is not an
// error — the polish simply starts (and may immediately finish) with
// whatever survived.
//
// prior may be nil (every candidate is then drawn uniformly).
func Run(space *search.Space, ev *search.Evaluator, prior *Prior, opts Options) (*search.Result, error) {
	dim := space.Dim()
	opts.fill(dim)
	if prior == nil {
		prior = NewPrior(space, nil)
	}
	rng := stats.NewRNG(opts.Seed ^ 0x5851f42d4c957f2d)

	var finalists []incumbent
	budgetHit := false

triage:
	for s := opts.SMax; s >= 0; s-- {
		// Bracket s: n candidates starting at fidelity r, s+1 rungs.
		n := int(math.Ceil(float64(opts.SMax+1) / float64(s+1) * math.Pow(opts.Eta, float64(s))))
		if n < 1 {
			n = 1
		}
		candidates := sampleCandidates(prior, rng, n, ev.Count())
		for i := 0; i <= s; i++ {
			fid := opts.MaxFidelity * math.Pow(opts.Eta, float64(i-s))
			if fid < opts.MinFidelity {
				fid = opts.MinFidelity
			}
			if fid > opts.MaxFidelity {
				fid = opts.MaxFidelity
			}
			emitRung(opts.Tracer, search.Event{
				Type: search.EventRung, Op: "open", Iter: i, Fidelity: fid,
				Detail: search.Note{Kind: search.NoteRungOpen, A: int32(s), B: int32(len(candidates))},
			})
			scored := make([]incumbent, 0, len(candidates))
			for _, cfg := range candidates {
				c, perf, err := ev.EvalConfigAt(cfg, fid)
				if err == search.ErrBudget {
					budgetHit = true
					finalists = appendFinalists(finalists, scored, fid, opts.MaxFidelity)
					break triage
				}
				if err != nil {
					return nil, err
				}
				scored = append(scored, incumbent{cfg: c, perf: perf}) // the evaluator's own, immutable
			}
			sort.SliceStable(scored, func(a, b int) bool {
				return opts.Direction.Better(scored[a].perf, scored[b].perf)
			})
			keep := len(scored)
			if i < s {
				keep = int(float64(len(scored)) / opts.Eta)
				if keep < 1 {
					keep = 1
				}
			}
			scored = scored[:keep]
			bestPerf := 0.0
			if len(scored) > 0 {
				bestPerf = scored[0].perf
			}
			emitRung(opts.Tracer, search.Event{
				Type: search.EventRung, Op: "promote", Iter: i, Fidelity: fid, Perf: bestPerf,
				Detail: search.Note{Kind: search.NoteRungPromote, A: int32(s), B: int32(len(scored))},
			})
			candidates = candidates[:0]
			for _, sc := range scored {
				candidates = append(candidates, sc.cfg)
			}
			finalists = appendFinalists(finalists, scored, fid, opts.MaxFidelity)
		}
	}

	// Polish: full-fidelity Nelder–Mead from the incumbents' simplex. The
	// seeds are the triage survivors best-first; with no triage (Eta=∞ or
	// SMax<0) they are the prior's own centers, which makes the degenerate
	// schedule exactly plain prior-seeded simplex.
	seeds := seedPoints(space, dedupeBest(finalists, opts.Direction, opts.Survivors))
	if len(seeds) == 0 {
		seeds = prior.SeedPoints()
	}
	polish := opts.Polish
	fallback := polish.Init
	if fallback == nil {
		fallback = search.DistributedInit{}
	}
	polish.Init = search.SeededInit{Seeds: seeds, Fallback: fallback}
	emitRung(opts.Tracer, search.Event{
		Type: search.EventPhase, Op: "polish",
		Detail: search.Note{Kind: search.NoteTriage, A: int32(len(seeds)), Flag: budgetHit},
	})
	return search.NelderMeadWithEvaluator(space, ev, polish)
}

// sampleCandidates draws n distinct candidates from the prior mixture
// (distinct within the bracket; a duplicate draw is retried a few times
// before being accepted anyway — tiny grids may not have n distinct
// configurations worth forcing).
func sampleCandidates(prior *Prior, rng *stats.RNG, n, observations int) []search.Config {
	out := make([]search.Config, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		cfg := prior.Sample(rng, observations)
		key := cfg.Key()
		if seen[key] {
			retried := false
			for attempt := 0; attempt < 4; attempt++ {
				cfg = prior.Sample(rng, observations)
				if k := cfg.Key(); !seen[k] {
					key, retried = k, true
					break
				}
			}
			if !retried {
				out = append(out, cfg) // accept the duplicate: grid exhausted
				continue
			}
		}
		seen[key] = true
		out = append(out, cfg)
	}
	return out
}

// appendFinalists records top-rung results: only configurations measured
// at the schedule's full fidelity are candidate polish seeds — promoting a
// noisy low-fidelity score into the seed ranking would let the noise pick
// the simplex.
func appendFinalists(finalists, scored []incumbent, fid, maxFid float64) []incumbent {
	if fid < maxFid {
		return finalists
	}
	return append(finalists, scored...)
}

// dedupeBest returns the best `keep` incumbents, deduplicated by
// configuration, best first.
func dedupeBest(in []incumbent, dir search.Direction, keep int) []incumbent {
	sorted := append([]incumbent(nil), in...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return dir.Better(sorted[a].perf, sorted[b].perf)
	})
	out := make([]incumbent, 0, keep)
	seen := map[string]bool{}
	for _, inc := range sorted {
		key := inc.cfg.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, inc)
		if len(out) == keep {
			break
		}
	}
	return out
}

func seedPoints(space *search.Space, incs []incumbent) [][]float64 {
	out := make([][]float64, len(incs))
	for i, inc := range incs {
		out[i] = space.Continuous(inc.cfg)
	}
	return out
}

// MeasurementUnits sums a trace's real measurement cost in full-fidelity
// units: a full-fidelity measurement costs 1, a fidelity-f rung sample
// costs f, and estimated answers cost nothing. This is the scheduler's
// native accounting; benches convert units to wall-clock seconds with
// their simulator's horizon.
func MeasurementUnits(tr search.Trace) float64 {
	units := 0.0
	for _, e := range tr {
		if e.Estimated {
			continue
		}
		if search.FullFidelity(e.Fidelity) {
			units++
		} else {
			units += e.Fidelity
		}
	}
	return units
}

// emitRung forwards a scheduler event through the nil-safe tracer
// convention (timestamped like every other emission site).
func emitRung(t search.Tracer, e search.Event) {
	if t == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.Emit(e)
}
