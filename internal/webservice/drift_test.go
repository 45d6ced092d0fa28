package webservice

import (
	"testing"

	"harmony/internal/tpcw"
)

func TestScheduleObjectiveStationaryMatchesObjectiveStable(t *testing.T) {
	c := NewCluster(Options{Duration: 40, Seed: 21})
	plain := c.ObjectiveStable(tpcw.Ordering)
	drifting := c.ScheduleObjective(tpcw.Stationary(tpcw.Ordering), NewMeasureClock(0, 40))
	cfg := Space().DefaultConfig()
	for _, workers := range []int{8, 16, 32} {
		cfg[PAJPMaxProcessors] = workers
		if a, b := drifting.Measure(cfg), plain.Measure(cfg); a != b {
			t.Fatalf("workers=%d: stationary schedule measured %v, ObjectiveStable %v", workers, a, b)
		}
	}
}

func TestScheduleObjectiveScalesBrowsersInAFlashCrowd(t *testing.T) {
	c := NewCluster(Options{Duration: 40, Seed: 21})
	sched := tpcw.StandardDrift(3, 600, 60)
	crowd := sched.Crowds[0]
	at := crowd.At + crowd.Duration/2
	cfg := Space().DefaultConfig()

	got := c.ScheduleObjective(sched, NewMeasureClock(at, 40)).Measure(cfg)
	opts := c.opts
	opts.Seed = c.stableSeed(cfg)
	opts.Browsers = int(float64(opts.Browsers)*crowd.Factor + 0.5)
	want, err := NewCluster(opts).Run(cfg, sched.MixAt(at))
	if err != nil {
		t.Fatal(err)
	}
	if got != want.WIPS {
		t.Fatalf("flash-crowd measurement = %v, want %v from %d browsers", got, want.WIPS, opts.Browsers)
	}
}
