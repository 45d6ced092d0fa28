package evalcache

import "harmony/internal/search"

// MeasureVia measures cfg through a claim on l the way search.Evaluator
// does: a leader measures and settles, a follower shares the leader's
// result, and a follower of an abandoned claim claims again.
func MeasureVia(l *Layer, cfg search.Config, fidelity float64, measure func() float64) float64 {
	for {
		c, lead := l.Claim(cfg, fidelity)
		if lead {
			return settle(c, measure)
		}
		if perf, ok := c.Wait(); ok {
			return perf
		}
	}
}

// do is MeasureVia on a bare Cache; coalesced reports that the result came
// from the memo or a peer's measurement.
func do(c *Cache, key string, measure func() float64) (perf float64, coalesced bool) {
	for {
		f, lead := c.claim(key, nil, nil)
		if lead {
			return settle(f, measure), false
		}
		if perf, ok := f.Wait(); ok {
			return perf, true
		}
	}
}

// settle runs a leader's measurement and settles its claim, or abandons the
// claim when measure panics.
func settle(c search.Claim, measure func() float64) float64 {
	settled := false
	defer func() {
		if !settled {
			c.Abandon()
		}
	}()
	perf := measure()
	settled = true
	c.Settle(perf)
	return perf
}
