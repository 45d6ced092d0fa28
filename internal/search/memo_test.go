package search

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
)

// memoModel is the string-keyed memo the content-keyed one replaced: a
// full-fidelity value under the configuration's key, a reduced one under
// the key and "@fidelity", the latest write winning. It answers a probe
// exactly as the Evaluator must: a full-fidelity truth answers any probe,
// a reduced value only a probe at its own fidelity, and nothing is answered
// with the cache disabled.
type memoModel struct {
	values  map[string]float64
	disable bool
	budget  int
	count   int
	hits    int
}

func modelKey(cfg Config, fidelity float64) string {
	if FullFidelity(fidelity) {
		return cfg.Key()
	}
	return cfg.Key() + "@" + strconv.FormatFloat(fidelity, 'g', -1, 64)
}

// eval returns the model's answer for a probe: the value, whether it is a
// memo hit, or ErrBudget. measure supplies a fresh measurement.
func (m *memoModel) eval(cfg Config, fidelity float64, measure func() float64) (float64, bool, error) {
	if !m.disable {
		if v, ok := m.values[cfg.Key()]; ok {
			m.hits++
			return v, true, nil
		}
		if v, ok := m.values[modelKey(cfg, fidelity)]; ok {
			m.hits++
			return v, true, nil
		}
	}
	if m.budget > 0 && m.count >= m.budget {
		return 0, false, ErrBudget
	}
	v := measure()
	m.values[modelKey(cfg, fidelity)] = v
	m.count++
	return v, false, nil
}

// batch returns the model's answers to an EvalBatch of pts whose fresh
// measurements are numbered from before+1, and ErrBudget once a point has
// none. With the cache on, the batch measures each distinct configuration
// once, in first-occurrence order, and counts a hit once for each distinct
// one already known; a repeat within the batch is neither. With the cache
// off, every point is measured in order until the budget stops the batch.
func (m *memoModel) batch(space *Space, pts [][]float64, before int) ([]float64, error) {
	fresh := func() float64 { before++; return float64(before) }
	var out []float64
	if m.disable {
		for _, pt := range pts {
			v, _, err := m.eval(space.Snap(pt), 0, fresh)
			if err != nil {
				return out, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	seen := map[string]bool{}
	for _, pt := range pts {
		cfg := space.Snap(pt)
		if seen[cfg.Key()] {
			continue
		}
		seen[cfg.Key()] = true
		m.eval(cfg, 0, fresh) //nolint:errcheck // an unmeasured point ends the answers below
	}
	for _, pt := range pts {
		v, ok := m.values[space.Snap(pt).Key()]
		if !ok {
			return out, ErrBudget
		}
		out = append(out, v)
	}
	return out, nil
}

// countingObjective numbers its measurements 1, 2, 3, …, in the order the
// evaluator asks for them; a batch is measured in its own order.
type countingObjective struct{ calls int }

func (o *countingObjective) Measure(Config) float64 { o.calls++; return float64(o.calls) }

func (o *countingObjective) MeasureBatch(ps []Probe) {
	for i := range ps {
		ps[i].Perf, ps[i].Done = o.Measure(ps[i].Config), true
	}
}

// TestMemoMatchesStringKeyedModel runs the content-keyed memo against the
// string-keyed model over random probes of a small space: repeats at full
// and reduced fidelity (promotion and same-rung hits), batches, speculated
// commits, a budget, and the disabled cache. Every probe's value, hit and
// error must agree, and so must the counts. The hash is the real one, one
// that sends every key to the same slot, and one with three slots' worth of
// values, so collisions resolve by comparing contents.
func TestMemoMatchesStringKeyedModel(t *testing.T) {
	hashes := map[string]func(Config, float64) uint64{
		"memoHash": nil,
		"constant": func(Config, float64) uint64 { return 0 },
		"mod3":     func(c Config, f float64) uint64 { return memoHash(c, f) % 3 },
	}
	space := MustSpace(
		Param{Name: "x", Min: 0, Max: 5, Step: 1},
		Param{Name: "y", Min: 0, Max: 5, Step: 1},
	)
	fidelities := []float64{0, 1, 0.25, 0.5, 2}
	for name, hash := range hashes {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			disable := seed%5 == 0
			budget := 0
			if seed%3 == 0 {
				budget = 20 + rng.Intn(30)
			}
			obj := &countingObjective{}
			ev := NewEvaluator(space, obj)
			ev.hash, ev.DisableCache, ev.MaxEvals = hash, disable, budget
			model := &memoModel{values: map[string]float64{}, disable: disable, budget: budget}
			check := func(op string, cfg Config, fid float64, got Config, perf float64, err error, before int) {
				t.Helper()
				want, hit, werr := model.eval(cfg, fid, func() float64 { return float64(before + 1) })
				switch {
				case !errors.Is(err, werr):
					t.Fatalf("%s seed %d: %s %v@%v: err %v, model %v", name, seed, op, cfg, fid, err, werr)
				case err != nil:
				case perf != want || !got.Equal(cfg):
					t.Fatalf("%s seed %d: %s %v@%v = %v %v, model %v", name, seed, op, cfg, fid, got, perf, want)
				case hit != (obj.calls == before):
					t.Fatalf("%s seed %d: %s %v@%v: measured %v, model hit %v", name, seed, op, cfg, fid, obj.calls != before, hit)
				}
			}
			point := func() []float64 { return []float64{float64(rng.Intn(6)), float64(rng.Intn(6))} }
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					pt, fid := point(), fidelities[rng.Intn(len(fidelities))]
					cfg := space.Snap(pt)
					before := obj.calls
					got, perf, err := ev.EvalAt(pt, fid)
					check("EvalAt", cfg, fid, got, perf, err, before)
				case op < 8:
					// A batch of up to four points, duplicates included, takes
					// the model's answers in input order.
					pts := make([][]float64, 1+rng.Intn(4))
					for i := range pts {
						pts[i] = point()
					}
					before, counted := obj.calls, model.count
					cfgs, perfs, err := ev.EvalBatch(pts, 4)
					want, werr := model.batch(space, pts, before)
					if !errors.Is(err, werr) || len(perfs) != len(want) {
						t.Fatalf("%s seed %d: batch %v = %v %v, %v; model %v, %v", name, seed, pts, cfgs, perfs, err, want, werr)
					}
					for i := range want {
						if perfs[i] != want[i] || !cfgs[i].Equal(space.Snap(pts[i])) {
							t.Fatalf("%s seed %d: batch %v = %v %v; model %v", name, seed, pts, cfgs, perfs, want)
						}
					}
					if obj.calls-before != model.count-counted {
						t.Fatalf("%s seed %d: batch %v measured %d, model %d", name, seed, pts, obj.calls-before, model.count-counted)
					}
				default:
					// A speculated round commits only the probed candidate.
					pts := [][]float64{point(), point(), point()}
					spec := ev.Speculate(pts, 4)
					measured := obj.calls
					for i := range spec.cfgs {
						if ev.lookup(spec.cfgs[i], 0) >= 0 {
							t.Fatalf("%s seed %d: speculated a memoized %v", name, seed, spec.cfgs[i])
						}
					}
					cfg := space.Snap(pts[rng.Intn(len(pts))])
					got, perf, err := ev.EvalSpeculated(space.Continuous(cfg), spec)
					if i := spec.find(cfg); i >= 0 && err == nil {
						want, hit, _ := model.eval(cfg, 0, func() float64 { return spec.perfs[i] })
						if hit || perf != want || !got.Equal(cfg) || obj.calls != measured {
							t.Fatalf("%s seed %d: speculated commit %v = %v %v, model %v (hit %v)", name, seed, cfg, got, perf, want, hit)
						}
					} else {
						check("EvalSpeculated", cfg, 0, got, perf, err, measured)
					}
				}
				if ev.Count() != model.count || ev.Hits() != model.hits {
					t.Fatalf("%s seed %d step %d: count %d hits %d, model %d and %d", name, seed, step, ev.Count(), ev.Hits(), model.count, model.hits)
				}
			}
		}
	}
}

// TestKeptConfigsDoNotAlias: the configurations the evaluator returns are
// carved from shared slabs, across several slabs here, yet each is its own:
// appending to one, or writing to it, leaves every other unchanged.
func TestKeptConfigsDoNotAlias(t *testing.T) {
	space := MustSpace(
		Param{Name: "x", Min: 0, Max: 99, Step: 1},
		Param{Name: "y", Min: 0, Max: 99, Step: 1},
	)
	ev := NewEvaluator(space, ObjectiveFunc(func(c Config) float64 { return float64(c[0]) }))
	var kept, want []Config
	for i := 0; i < 3*evalHint+5; i++ {
		cfg, _, err := ev.EvalConfig(Config{i % 100, i / 100})
		if err != nil {
			t.Fatal(err)
		}
		kept, want = append(kept, cfg), append(want, cfg.Clone())
	}
	for i := range kept {
		if grown := append(kept[i], -1); &grown[0] == &kept[i][0] {
			t.Fatalf("config %d grew in place", i)
		}
	}
	kept[10][0], kept[10][1] = -7, -7
	want[10] = Config{-7, -7}
	for i := range kept {
		if !kept[i].Equal(want[i]) {
			t.Fatalf("config %d = %v, want %v", i, kept[i], want[i])
		}
	}
}
