package rsl

import (
	"fmt"
	"math/big"
	"strings"

	"harmony/internal/search"
	"harmony/internal/stats"
)

// Bounds is the concrete integer range of one bundle after restriction
// expressions have been evaluated.
type Bounds struct {
	Min, Max, Step int
}

// NumValues returns the number of admissible values, 0 when the range is
// empty (a legal outcome under restriction: earlier choices can close a
// later bundle's range).
func (b Bounds) NumValues() int {
	if b.Max < b.Min {
		return 0
	}
	return (b.Max-b.Min)/b.Step + 1
}

// Value returns the i-th admissible value.
func (b Bounds) Value(i int) int { return b.Min + i*b.Step }

// BoundsAt evaluates bundle i's bounds given the values chosen for bundles
// 0..i-1.
func (s *Spec) BoundsAt(i int, chosen []int) (Bounds, error) {
	if i < 0 || i >= len(s.Bundles) {
		return Bounds{}, fmt.Errorf("rsl: bundle index %d out of range", i)
	}
	if len(chosen) < i {
		return Bounds{}, fmt.Errorf("rsl: bundle %d needs %d prior choices, have %d", i, i, len(chosen))
	}
	env := map[string]int{}
	for j := 0; j < i; j++ {
		env[s.Bundles[j].Name] = chosen[j]
	}
	return s.boundsIn(i, env)
}

// boundsIn evaluates bundle i's bounds in env, which maps each earlier
// bundle to its chosen value.
func (s *Spec) boundsIn(i int, env map[string]int) (Bounds, error) {
	b := s.Bundles[i]
	min, err := b.Min.Eval(env)
	if err != nil {
		return Bounds{}, fmt.Errorf("rsl: bundle %q min: %w", b.Name, err)
	}
	max, err := b.Max.Eval(env)
	if err != nil {
		return Bounds{}, fmt.Errorf("rsl: bundle %q max: %w", b.Name, err)
	}
	step, err := b.Step.Eval(env)
	if err != nil {
		return Bounds{}, fmt.Errorf("rsl: bundle %q step: %w", b.Name, err)
	}
	if step <= 0 {
		return Bounds{}, fmt.Errorf("rsl: bundle %q evaluated step %d, must be positive", b.Name, step)
	}
	return Bounds{Min: min, Max: max, Step: step}, nil
}

// Names returns the bundle names in declaration order.
func (s *Spec) Names() []string {
	out := make([]string, len(s.Bundles))
	for i, b := range s.Bundles {
		out[i] = b.Name
	}
	return out
}

// Dim returns the number of bundles.
func (s *Spec) Dim() int { return len(s.Bundles) }

// Restricted reports whether any bundle's bounds reference another bundle.
func (s *Spec) Restricted() bool {
	for _, b := range s.Bundles {
		if b.Restricted() {
			return true
		}
	}
	return false
}

// Contains reports whether the configuration is feasible: every value lies
// on its bundle's (restriction-evaluated) grid.
func (s *Spec) Contains(cfg search.Config) bool {
	if len(cfg) != len(s.Bundles) {
		return false
	}
	for i := range s.Bundles {
		b, err := s.BoundsAt(i, cfg[:i])
		if err != nil {
			return false
		}
		v := cfg[i]
		if v < b.Min || v > b.Max || (v-b.Min)%b.Step != 0 {
			return false
		}
	}
	return true
}

// Enumerate calls fn for every feasible configuration in lexicographic
// order, stopping early when fn returns false. Enumeration cost is
// proportional to the number of feasible configurations, which restriction
// is designed to keep small.
func (s *Spec) Enumerate(fn func(search.Config) bool) error {
	cfg := make(search.Config, 0, len(s.Bundles))
	_, err := s.enumerate(cfg, fn)
	return err
}

func (s *Spec) enumerate(prefix search.Config, fn func(search.Config) bool) (bool, error) {
	i := len(prefix)
	if i == len(s.Bundles) {
		return fn(prefix.Clone()), nil
	}
	b, err := s.BoundsAt(i, prefix)
	if err != nil {
		return false, err
	}
	for k := 0; k < b.NumValues(); k++ {
		cont, err := s.enumerate(append(prefix, b.Value(k)), fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Count returns the exact number of feasible configurations, giving up with
// an error once the count exceeds limit (0 means 10,000,000). Counting is
// exact even for restricted specs, where the size is not a simple product.
func (s *Spec) Count(limit int) (*big.Int, error) {
	if limit == 0 {
		limit = 10_000_000
	}
	// Group feasible prefixes by the environment values later bundles can
	// actually see, so counting is exponential only in the referenced
	// dimensions rather than all of them.
	type group struct {
		env   search.Config // values of all bundles so far (prefix)
		count *big.Int
	}
	groups := map[string]*group{"": {env: search.Config{}, count: big.NewInt(1)}}
	for i := range s.Bundles {
		// Which earlier bundles do the remaining bundles reference?
		needed := map[string]bool{}
		for j := i; j < len(s.Bundles); j++ {
			for _, r := range s.Bundles[j].refs() {
				needed[r] = true
			}
		}
		next := map[string]*group{}
		total := big.NewInt(0)
		for _, g := range groups {
			b, err := s.BoundsAt(i, g.env)
			if err != nil {
				return nil, err
			}
			for k := 0; k < b.NumValues(); k++ {
				env := append(g.env.Clone(), b.Value(k))
				// Key only on the values later bundles can see.
				var keyB strings.Builder
				for j, name := range s.Names()[:i+1] {
					if needed[name] {
						fmt.Fprintf(&keyB, "%d=%d;", j, env[j])
					}
				}
				key := keyB.String()
				if ng, ok := next[key]; ok {
					ng.count.Add(ng.count, g.count)
				} else {
					next[key] = &group{env: env, count: new(big.Int).Set(g.count)}
				}
			}
		}
		for _, g := range next {
			total.Add(total, g.count)
		}
		if i == len(s.Bundles)-1 {
			return total, nil
		}
		if len(next) > limit {
			return nil, fmt.Errorf("rsl: count state exceeded limit %d", limit)
		}
		groups = next
	}
	return big.NewInt(0), nil
}

// UnrestrictedCount returns the size of the space when every bundle's
// bounds are evaluated with all references pinned to the referenced
// bundle's own unrestricted minimum — the box the search would explore
// without the restriction technique. Comparing it against Count shows the
// Appendix B search-space reduction.
func (s *Spec) UnrestrictedCount() (*big.Int, error) {
	boxes, err := s.Box()
	if err != nil {
		return nil, err
	}
	total := big.NewInt(1)
	for _, b := range boxes {
		n := b.NumValues()
		if n <= 0 {
			return big.NewInt(0), nil
		}
		total.Mul(total, big.NewInt(int64(n)))
	}
	return total, nil
}

// Box returns per-bundle outer bounds: each restricted bound is evaluated
// at the loosest admissible values of its references (computed greedily
// from earlier boxes by trying both endpoints of every reference).
func (s *Spec) Box() ([]Bounds, error) {
	boxes := make([]Bounds, len(s.Bundles))
	for i, b := range s.Bundles {
		refs := b.refs()
		// Evaluate min/max under every corner combination of the referenced
		// bundles' boxes; take the widest result.
		corners, err := s.refCorners(refs, boxes)
		if err != nil {
			return nil, err
		}
		first := true
		var out Bounds
		for _, env := range corners {
			min, err := b.Min.Eval(env)
			if err != nil {
				return nil, err
			}
			max, err := b.Max.Eval(env)
			if err != nil {
				return nil, err
			}
			step, err := b.Step.Eval(env)
			if err != nil {
				return nil, err
			}
			if step <= 0 {
				return nil, fmt.Errorf("rsl: bundle %q step %d not positive", b.Name, step)
			}
			if first {
				out = Bounds{Min: min, Max: max, Step: step}
				first = false
				continue
			}
			if min < out.Min {
				out.Min = min
			}
			if max > out.Max {
				out.Max = max
			}
			if step < out.Step {
				out.Step = step
			}
		}
		boxes[i] = out
	}
	return boxes, nil
}

// refCorners builds every corner assignment of the referenced bundles.
func (s *Spec) refCorners(refs []string, boxes []Bounds) ([]map[string]int, error) {
	envs := []map[string]int{{}}
	seen := map[string]bool{}
	for _, r := range refs {
		if seen[r] {
			continue
		}
		seen[r] = true
		idx := -1
		for j, b := range s.Bundles {
			if b.Name == r {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("rsl: unknown reference $%s", r)
		}
		bx := boxes[idx]
		var next []map[string]int
		for _, env := range envs {
			for _, v := range []int{bx.Min, bx.Max} {
				cp := map[string]int{}
				for k, vv := range env {
					cp[k] = vv
				}
				cp[r] = v
				next = append(next, cp)
			}
		}
		envs = next
	}
	return envs, nil
}

// Sample draws one feasible configuration by choosing each bundle's value
// uniformly within its restricted bounds, in declaration order (the
// decision procedure of Appendix B). It can fail when a prefix closes a
// later bundle's range; it retries a bounded number of times.
func (s *Spec) Sample(rng *stats.RNG) (search.Config, error) {
	const maxTries = 256
	for try := 0; try < maxTries; try++ {
		cfg := make(search.Config, 0, len(s.Bundles))
		ok := true
		for i := range s.Bundles {
			b, err := s.BoundsAt(i, cfg)
			if err != nil {
				return nil, err
			}
			n := b.NumValues()
			if n == 0 {
				ok = false
				break
			}
			cfg = append(cfg, b.Value(rng.Intn(n)))
		}
		if ok {
			return cfg, nil
		}
	}
	return nil, fmt.Errorf("rsl: could not sample a feasible configuration in %d tries", maxTries)
}

// Decode maps a point in the unit hypercube onto a feasible configuration:
// coordinate i selects position u_i of bundle i's restricted range after
// bundles 0..i-1 are decided. This gives the Nelder–Mead kernel a fixed box
// to search while every probed configuration stays feasible.
func (s *Spec) Decode(u []float64) (search.Config, error) {
	if len(u) != len(s.Bundles) {
		return nil, fmt.Errorf("rsl: decode point has %d coordinates, want %d", len(u), len(s.Bundles))
	}
	cfg := make(search.Config, 0, len(s.Bundles))
	for i := range s.Bundles {
		b, err := s.BoundsAt(i, cfg)
		if err != nil {
			return nil, err
		}
		n := b.NumValues()
		if n == 0 {
			return nil, fmt.Errorf("rsl: bundle %q has empty range after choices %v", s.Bundles[i].Name, cfg)
		}
		f := u[i]
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		k := int(f * float64(n))
		if k >= n {
			k = n - 1
		}
		cfg = append(cfg, b.Value(k))
	}
	return cfg, nil
}

// SearchAdapter exposes the restricted spec to the search kernel: a space
// of normalized coordinates (granularity grid points per axis, default 64)
// plus an objective wrapper that decodes each probe into a feasible
// configuration before measuring it.
func (s *Spec) SearchAdapter(obj search.Objective, granularity int) (*search.Space, search.Objective, error) {
	if granularity <= 1 {
		granularity = 64
	}
	params := make([]search.Param, len(s.Bundles))
	for i, b := range s.Bundles {
		params[i] = search.Param{
			Name: b.Name, Min: 0, Max: granularity - 1, Step: 1, Default: (granularity - 1) / 2,
		}
	}
	space, err := search.NewSpace(params...)
	if err != nil {
		return nil, nil, err
	}
	g := float64(granularity - 1)
	wrapped := search.ObjectiveFunc(func(c search.Config) float64 {
		u := make([]float64, len(c))
		for i, v := range c {
			u[i] = float64(v) / g
		}
		cfg, err := s.Decode(u)
		if err != nil {
			panic(fmt.Sprintf("rsl: decode failed mid-search: %v", err))
		}
		return obj.Measure(cfg)
	})
	return space, wrapped, nil
}

// Static converts an unrestricted spec into a plain search.Space (defaults
// at the range midpoint). It fails when the spec uses restriction.
func (s *Spec) Static() (*search.Space, error) {
	if s.Restricted() {
		return nil, fmt.Errorf("rsl: spec uses parameter restriction; use SearchAdapter")
	}
	params := make([]search.Param, len(s.Bundles))
	for i := range s.Bundles {
		// Unrestricted bounds ignore the environment: evaluate them with
		// none.
		b, err := s.boundsIn(i, nil)
		if err != nil {
			return nil, err
		}
		if b.NumValues() == 0 {
			return nil, fmt.Errorf("rsl: bundle %q has empty range", s.Bundles[i].Name)
		}
		def := b.Min + (b.NumValues()-1)/2*b.Step
		params[i] = search.Param{Name: s.Bundles[i].Name, Min: b.Min, Max: b.Max, Step: b.Step, Default: def}
	}
	return search.NewSpace(params...)
}

// Format renders the spec back to RSL source: its canonical form.
func (s *Spec) Format() string { return string(s.AppendFormat(nil)) }

// AppendFormat appends the spec's canonical form (see Format) to b.
func (s *Spec) AppendFormat(b []byte) []byte {
	for _, bundle := range s.Bundles {
		b = append(b, "{ harmonyBundle "...)
		b = append(b, bundle.Name...)
		b = append(b, " { int {"...)
		b = append(appendExpr(b, bundle.Min), ' ')
		b = append(appendExpr(b, bundle.Max), ' ')
		b = append(appendExpr(b, bundle.Step), "} } }\n"...)
	}
	return b
}
