// Package mfsearch is the multi-fidelity search subsystem: a
// Hyperband-style successive-halving scheduler over cheap low-fidelity
// measurements, seeded from the prior-run experience database, with the
// surviving incumbents handed to full-fidelity Nelder–Mead polish through
// the existing search.Evaluator — so tracing, the eval cache and failure
// budgets all apply unchanged.
//
// The design follows PriorBand: candidate configurations are drawn from a
// mixture of prior-weighted samples (Gaussians around the best prior-run
// configurations in normalized space) and uniform samples, with the prior
// mass decaying toward uniform as real observations accumulate — a stale
// or mismatched prior can slow the search down but never pin it.
package mfsearch

import (
	"math"

	"harmony/internal/search"
	"harmony/internal/stats"
)

// Prior defaults.
const (
	// DefaultSigma is the per-dimension Gaussian width (in normalized
	// [0, 1] coordinates) of prior-centered draws.
	DefaultSigma = 0.15
	// DefaultWeight is the initial probability that a candidate is drawn
	// from the prior rather than uniformly.
	DefaultWeight = 0.75
	// DefaultDecay is the observation count at which the prior mass has
	// halved: w(obs) = Weight / (1 + obs/Decay).
	DefaultDecay = 32.0
)

// Prior is the candidate-sampling distribution built from a session's
// matched experience-database namespace. The zero value is unusable; build
// one with NewPrior. With no seed configurations every draw is uniform, so
// a cold start degrades gracefully to plain Hyperband.
type Prior struct {
	// Sigma, Weight and Decay tune the mixture (see the package defaults).
	Sigma  float64
	Weight float64
	Decay  float64

	space   *search.Space
	centers [][]float64 // normalized prior centers, best first
	points  [][]float64 // the same centers as continuous points (for seeding)
}

// NewPrior builds a prior over the space centered on the given historical
// configurations, ordered best first: the training stage's seeds
// (history.Experience.Seeds), the list the daemon also seeds its warm
// simplex with. Configurations of the wrong dimension are skipped.
func NewPrior(space *search.Space, seeds []search.Config) *Prior {
	p := &Prior{
		Sigma:  DefaultSigma,
		Weight: DefaultWeight,
		Decay:  DefaultDecay,
		space:  space,
	}
	for _, cfg := range seeds {
		if len(cfg) != space.Dim() || !space.Contains(cfg) {
			continue
		}
		p.centers = append(p.centers, space.Normalized(cfg))
		p.points = append(p.points, space.Continuous(cfg))
	}
	return p
}

// Len returns the number of prior centers.
func (p *Prior) Len() int { return len(p.centers) }

// SeedPoints returns the prior centers as continuous points, best first —
// the exact seed list a warm-started simplex would use (search.SeededInit).
func (p *Prior) SeedPoints() [][]float64 {
	out := make([][]float64, len(p.points))
	for i, pt := range p.points {
		out[i] = append([]float64(nil), pt...)
	}
	return out
}

// Mass returns the current prior mass given the number of real
// observations accumulated so far: Weight / (1 + obs/Decay), or 0 with no
// centers. It decays toward zero, so late brackets explore uniformly no
// matter how confident the prior started.
func (p *Prior) Mass(observations int) float64 {
	if len(p.centers) == 0 {
		return 0
	}
	return p.Weight / (1 + float64(observations)/p.Decay)
}

// Sample draws one candidate configuration: with probability
// Mass(observations) a Gaussian perturbation of a random prior center,
// uniform over the space otherwise. The draw is snapped to the parameter
// grid. Deterministic in the RNG state.
func (p *Prior) Sample(rng *stats.RNG, observations int) search.Config {
	dim := p.space.Dim()
	pt := make([]float64, dim)
	if rng.Float64() < p.Mass(observations) {
		center := p.centers[rng.Intn(len(p.centers))]
		for j := 0; j < dim; j++ {
			pt[j] = clamp01(center[j] + p.Sigma*gauss(rng))
		}
	} else {
		for j := 0; j < dim; j++ {
			pt[j] = rng.Float64()
		}
	}
	cont := make([]float64, dim)
	for j, prm := range p.space.Params {
		cont[j] = float64(prm.Min) + pt[j]*float64(prm.Max-prm.Min)
	}
	return p.space.Snap(cont)
}

// gauss draws a standard normal variate (Box–Muller; one draw per call so
// sampling stays a pure function of the RNG sequence).
func gauss(rng *stats.RNG) float64 {
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
