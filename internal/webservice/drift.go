package webservice

import (
	"sync"

	"harmony/internal/search"
	"harmony/internal/tpcw"
)

// MeasureClock is the virtual measurement-time axis a drifting objective
// lives on. Each measurement observes the workload schedule at the clock's
// current time and then advances it by the measurement's cost (the
// simulated horizon), so a tuning session literally spends its budget
// while the workload underneath it moves — the paper's "tuning time"
// and the drift timeline share one axis.
type MeasureClock struct {
	mu   sync.Mutex
	now  float64
	cost float64
}

// NewMeasureClock returns a clock starting at start that charges cost
// seconds per measurement.
func NewMeasureClock(start, cost float64) *MeasureClock {
	return &MeasureClock{now: start, cost: cost}
}

// Now returns the current virtual time.
func (k *MeasureClock) Now() float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// tick returns the time the next measurement observes and advances the
// clock past it.
func (k *MeasureClock) tick() float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.now
	k.now += k.cost
	return t
}

// ScheduleObjective adapts the cluster to a drifting workload: each
// measurement observes the schedule at the clock's current virtual time
// and charges the clock one measurement horizon. Per-configuration
// measurement seeds are content-derived exactly as in ObjectiveStable, so
// against a Stationary schedule the returned objective is bit-identical
// to ObjectiveStable(mix) — drift machinery on a non-drifting workload
// changes nothing.
func (c *Cluster) ScheduleObjective(sched *tpcw.Schedule, clock *MeasureClock) search.Objective {
	return search.ObjectiveFunc(func(cfg search.Config) float64 {
		t := clock.tick()
		return c.measure(cfg, sched.MixAt(t), c.stableSeed(cfg), 1, sched.LoadAt(t))
	})
}
