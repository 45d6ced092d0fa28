// Package drift detects workload drift during a tuning session.
//
// The paper's data analyzer classifies a workload once, at registration,
// by the squared-error distance between its observed characteristic vector
// and the stored experiences (§4.2) — and never looks again. Production
// traffic drifts: browsing mixes ramp into ordering mixes, flash crowds
// arrive, and the configuration the tuner converged on stops being
// optimal. This package maintains an exponentially-weighted moving average
// of the characteristics the application reports alongside its
// measurements and compares it, with the same squared-error metric the
// expdb k-d index and the classifier use, against the centroid the
// session was matched to. When the distance stays over a threshold for a
// full hysteresis window the detector trips once and disarms; the server
// then re-matches the classifier against the live vector, rebases the
// detector on the new centroid, and funds a warm in-session re-tune.
package drift

import (
	"sync"

	"harmony/internal/stats"
)

// Defaults for the Options zero values, exported so flag registration can
// advertise them.
const (
	DefaultAlpha     = 0.2
	DefaultThreshold = 0.01
	DefaultWindow    = 3
)

// Options configures a Detector. Zero values select the defaults.
type Options struct {
	// Alpha is the EWMA weight of each new observation (default 0.2): the
	// live vector is live = (1-Alpha)*live + Alpha*observed. Smaller means
	// smoother and slower to notice.
	Alpha float64
	// Threshold is the squared-error distance between the live vector and
	// the reference centroid that counts as drifted (default 0.01 — about
	// a fifth of the distance between adjacent standard TPC-W mixes, well
	// above the sampling noise of a smoothed frequency vector).
	Threshold float64
	// ReArmBelow re-arms a tripped detector when the distance falls back
	// under it (default Threshold/2): the hysteresis band that stops a
	// workload hovering at the threshold from re-triggering every
	// observation.
	ReArmBelow float64
	// Window is the number of consecutive over-threshold observations
	// required to trip (default 3): one outlier measurement is noise, a
	// run of them is drift.
	Window int
	// MinObservations is the number of observations required before the
	// detector may trip at all (default Window), so a session cannot
	// "drift" off a half-formed average.
	MinObservations int
}

func (o *Options) fill() {
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = DefaultAlpha
	}
	if o.Threshold <= 0 {
		o.Threshold = DefaultThreshold
	}
	if o.ReArmBelow <= 0 || o.ReArmBelow > o.Threshold {
		o.ReArmBelow = o.Threshold / 2
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.MinObservations <= 0 {
		o.MinObservations = o.Window
	}
}

// Status is a point-in-time snapshot of a detector.
type Status struct {
	// Live is the current EWMA characteristic vector (nil before the first
	// observation).
	Live []float64
	// Ref is the reference centroid the distance is measured against.
	Ref []float64
	// Dist is the distance at the last observation.
	Dist float64
	// Drifts counts threshold crossings so far.
	Drifts int
	// Observations counts characteristic observations so far.
	Observations int
	// Armed reports whether the detector can trip on the next window.
	Armed bool
}

// Detector tracks one session's live workload against its matched
// centroid. Safe for concurrent use.
type Detector struct {
	mu     sync.Mutex
	opts   Options
	ref    []float64
	live   []float64
	n      int
	over   int // consecutive over-threshold observations
	armed  bool
	drifts int
	dist   float64
}

// New returns a detector measuring against the reference centroid ref —
// the matched experience's characteristics when the session warm-started,
// the registered characteristics otherwise.
func New(ref []float64, opts Options) *Detector {
	opts.fill()
	return &Detector{
		opts:  opts,
		ref:   append([]float64(nil), ref...),
		armed: true,
	}
}

// Observe folds one observed characteristic vector into the live EWMA and
// returns the resulting distance to the reference centroid, with triggered
// set on the observation that completes an over-threshold hysteresis
// window. After triggering the detector disarms until Rebase (or until the
// distance falls back below ReArmBelow), so one drift episode trips
// exactly once. Observations whose length does not match the reference are
// ignored.
func (d *Detector) Observe(chars []float64) (dist float64, triggered bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(chars) != len(d.ref) || len(chars) == 0 {
		return d.dist, false
	}
	if d.live == nil {
		d.live = append([]float64(nil), chars...)
	} else {
		a := d.opts.Alpha
		for i, v := range chars {
			d.live[i] = (1-a)*d.live[i] + a*v
		}
	}
	d.n++
	d.dist = stats.SquaredError(d.live, d.ref)

	if !d.armed {
		if d.dist < d.opts.ReArmBelow {
			d.armed, d.over = true, 0
		}
		return d.dist, false
	}
	if d.dist < d.opts.Threshold {
		d.over = 0
		return d.dist, false
	}
	d.over++
	if d.over >= d.opts.Window && d.n >= d.opts.MinObservations {
		d.drifts++
		d.armed, d.over = false, 0
		return d.dist, true
	}
	return d.dist, false
}

// Rebase points the detector at a new reference centroid (the experience
// the classifier re-matched after a drift, or the live vector itself when
// nothing matched) and re-arms it for the next episode.
func (d *Detector) Rebase(ref []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ref = append(d.ref[:0], ref...)
	if d.live != nil {
		d.dist = stats.SquaredError(d.live, d.ref)
	}
	d.armed, d.over = true, 0
}

// Live returns a copy of the current EWMA vector (nil before the first
// observation).
func (d *Detector) Live() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.live...)
}

// Status returns a point-in-time snapshot.
func (d *Detector) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Status{
		Live:         append([]float64(nil), d.live...),
		Ref:          append([]float64(nil), d.ref...),
		Dist:         d.dist,
		Drifts:       d.drifts,
		Observations: d.n,
		Armed:        d.armed,
	}
}
