// Package search implements the Active Harmony tuning kernel: discrete
// integer parameter spaces, a Nelder–Mead simplex search adapted to those
// spaces (paper §2), the original extreme-corner and the improved
// evenly-distributed initial simplex strategies (paper §4.1), exhaustive and
// random baselines, and the evaluation bookkeeping (traces, convergence and
// oscillation metrics) that the paper's tables report.
package search

import (
	"fmt"
	"math"
	"math/big"
)

// Param describes one tunable parameter as the paper's prioritizing tool
// specifies it (§3): minimum, maximum, default value, and the distance
// between two neighbour values (Step).
type Param struct {
	Name    string
	Min     int
	Max     int
	Step    int
	Default int
}

// Validate reports whether the parameter definition is self-consistent.
func (p Param) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("search: parameter with empty name")
	}
	if p.Step <= 0 {
		return fmt.Errorf("search: parameter %q has non-positive step %d", p.Name, p.Step)
	}
	if p.Max < p.Min {
		return fmt.Errorf("search: parameter %q has max %d < min %d", p.Name, p.Max, p.Min)
	}
	if p.Default < p.Min || p.Default > p.Max {
		return fmt.Errorf("search: parameter %q default %d outside [%d, %d]", p.Name, p.Default, p.Min, p.Max)
	}
	return nil
}

// NumValues returns the number of grid points the parameter can take.
func (p Param) NumValues() int {
	return (p.Max-p.Min)/p.Step + 1
}

// Snap returns the grid value nearest to x, clamped into [Min, Max].
func (p Param) Snap(x float64) int {
	if x <= float64(p.Min) {
		return p.Min
	}
	if x >= float64(p.Max) {
		return p.Max
	}
	steps := math.Round((x - float64(p.Min)) / float64(p.Step))
	v := p.Min + int(steps)*p.Step
	if v > p.Max {
		v = p.Max
	}
	return v
}

// Normalize maps a parameter value into [0, 1] (the paper's v′ scaling).
func (p Param) Normalize(v int) float64 {
	if p.Max == p.Min {
		return 0
	}
	return float64(v-p.Min) / float64(p.Max-p.Min)
}

// Values returns every grid value of the parameter in ascending order.
func (p Param) Values() []int {
	out := make([]int, 0, p.NumValues())
	for v := p.Min; v <= p.Max; v += p.Step {
		out = append(out, v)
	}
	return out
}

// Config is one point in a parameter space: the i-th entry is the value of
// the i-th parameter.
type Config []int

// Clone returns an independent copy of the configuration.
func (c Config) Clone() Config {
	return append(Config(nil), c...)
}

// Equal reports whether two configurations have identical values.
func (c Config) Equal(other Config) bool {
	if len(c) != len(other) {
		return false
	}
	for i := range c {
		if c[i] != other[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string form usable as a map key: the values in
// decimal, comma-separated. It is appendKey's form, which the Evaluator's
// memo lookups build without allocating.
func (c Config) Key() string {
	var buf [64]byte // holds typical keys, so the string is the only allocation
	return string(appendKey(buf[:0], c))
}

// Space is an ordered set of tunable parameters.
type Space struct {
	Params []Param
}

// NewSpace validates the parameter list and returns a Space.
func NewSpace(params ...Param) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("search: space with no parameters")
	}
	seen := map[string]bool{}
	for _, p := range params {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("search: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return &Space{Params: params}, nil
}

// MustSpace is NewSpace that panics on error, for tests and fixed tables.
func MustSpace(params ...Param) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.Params) }

// Size returns the total number of configurations in the space. The paper
// motivates prioritization with spaces like 2^1000, so the count is exact
// (math/big) rather than a float.
func (s *Space) Size() *big.Int {
	total := big.NewInt(1)
	for _, p := range s.Params {
		total.Mul(total, big.NewInt(int64(p.NumValues())))
	}
	return total
}

// DefaultConfig returns the configuration with every parameter at its
// default value.
func (s *Space) DefaultConfig() Config {
	cfg := make(Config, len(s.Params))
	for i, p := range s.Params {
		cfg[i] = p.Default
	}
	return cfg
}

// Snap maps a continuous point onto the nearest valid configuration, the
// discrete adaptation of the simplex method described in §2 of the paper.
func (s *Space) Snap(pt []float64) Config {
	return s.snapInto(make(Config, len(s.Params)), pt)
}

// snapInto is Snap writing into cfg, which must hold Dim values.
func (s *Space) snapInto(cfg Config, pt []float64) Config {
	if len(pt) != len(s.Params) {
		panic("search: Snap with wrong dimensionality")
	}
	for i, p := range s.Params {
		cfg[i] = p.Snap(pt[i])
	}
	return cfg
}

// Continuous converts a configuration to a float point.
func (s *Space) Continuous(cfg Config) []float64 {
	if len(cfg) != len(s.Params) {
		panic("search: Continuous with wrong dimensionality")
	}
	pt := make([]float64, len(cfg))
	for i, v := range cfg {
		pt[i] = float64(v)
	}
	return pt
}

// ContinuousAll converts configurations to float points, one per
// configuration — the seed points search.SeededInit consumes.
func (s *Space) ContinuousAll(cfgs []Config) [][]float64 {
	pts := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = s.Continuous(cfg)
	}
	return pts
}

// Contains reports whether cfg lies on the space's grid.
func (s *Space) Contains(cfg Config) bool {
	if len(cfg) != len(s.Params) {
		return false
	}
	for i, p := range s.Params {
		v := cfg[i]
		if v < p.Min || v > p.Max || (v-p.Min)%p.Step != 0 {
			return false
		}
	}
	return true
}

// Normalized maps a configuration into the unit hypercube.
func (s *Space) Normalized(cfg Config) []float64 {
	out := make([]float64, len(cfg))
	for i, p := range s.Params {
		out[i] = p.Normalize(cfg[i])
	}
	return out
}

// Names returns the parameter names in order.
func (s *Space) Names() []string {
	out := make([]string, len(s.Params))
	for i, p := range s.Params {
		out[i] = p.Name
	}
	return out
}

// Index returns the position of the named parameter, or -1.
func (s *Space) Index(name string) int {
	for i, p := range s.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Subspace returns a space over only the parameters at the given indices,
// plus an embedding that maps a sub-configuration back into the full space
// with every other parameter fixed at base. This implements the paper's
// "tune only the n most sensitive parameters, leave the rest at defaults"
// experiments (Figures 6 and 9).
func (s *Space) Subspace(indices []int, base Config) (*Space, func(Config) Config, error) {
	if len(base) != len(s.Params) {
		return nil, nil, fmt.Errorf("search: Subspace base has %d values, want %d", len(base), len(s.Params))
	}
	if len(indices) == 0 {
		return nil, nil, fmt.Errorf("search: Subspace with no indices")
	}
	seen := map[int]bool{}
	params := make([]Param, 0, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= len(s.Params) {
			return nil, nil, fmt.Errorf("search: Subspace index %d out of range", idx)
		}
		if seen[idx] {
			return nil, nil, fmt.Errorf("search: Subspace duplicate index %d", idx)
		}
		seen[idx] = true
		params = append(params, s.Params[idx])
	}
	sub, err := NewSpace(params...)
	if err != nil {
		return nil, nil, err
	}
	fixed := base.Clone()
	embed := func(c Config) Config {
		full := fixed.Clone()
		for i, idx := range indices {
			full[idx] = c[i]
		}
		return full
	}
	return sub, embed, nil
}

// EachConfig calls fn for every configuration in the space in lexicographic
// order, stopping early if fn returns false. Intended for exhaustive search
// over small spaces (e.g. the Figure 4 distribution sweep).
func (s *Space) EachConfig(fn func(Config) bool) {
	cfg := make(Config, len(s.Params))
	for i, p := range s.Params {
		cfg[i] = p.Min
	}
	for {
		if !fn(cfg.Clone()) {
			return
		}
		// Odometer increment.
		i := len(cfg) - 1
		for i >= 0 {
			cfg[i] += s.Params[i].Step
			if cfg[i] <= s.Params[i].Max {
				break
			}
			cfg[i] = s.Params[i].Min
			i--
		}
		if i < 0 {
			return
		}
	}
}
