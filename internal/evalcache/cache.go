// Package evalcache implements the server's "measure once" layer: a
// sharded, concurrency-safe config→performance memo with singleflight
// coalescing of duplicate in-flight measurements, plus an opt-in §4.3
// estimation gate that answers probes from the triangulation estimator's
// plane fit when the fit is well-supported.
//
// The dominant cost in Active Harmony is the real measurement — every
// simplex probe is a full client round-trip — and the same configuration is
// routinely probed more than once: by the same session (speculative rounds
// whose candidates are discarded), by a peer session tuning the same
// application, or by a prior run whose trace sits in the durable experience
// database. Tuneful (Fekry et al.) and BestConfig (Zhu et al.) both frame
// online tuning as squeezing a fixed measurement budget; this layer's
// contract is simply "never pay twice for the same point":
//
//   - exact hits return the previously measured truth, free;
//   - duplicate in-flight configurations (within one pipelined window or
//     across sessions sharing a scope) ride one measurement via
//     singleflight;
//   - optionally, the estimation gate substitutes a computed value when the
//     k-NN vertices are close and the hyperplane fit is tight, falling back
//     to a real measurement otherwise.
//
// Exact-only caching is trajectory-preserving: for deterministic objectives
// the committed tuning trajectory is identical to an uncached run — only
// the number of real objective invocations drops. The estimation gate
// trades that identity for further savings and is therefore opt-in.
package evalcache

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/search"
)

// DefaultShards is the lock-shard count of a Cache.
const DefaultShards = 16

// DefaultMaxEntries bounds the number of distinct configurations one Cache
// retains (per cache, summed over shards). Beyond it, inserts evict an
// arbitrary resident entry — the memo is an optimization, not a store of
// record, so dropping entries only costs future hits.
const DefaultMaxEntries = 1 << 18

// entry is one memoized truth: the measured performance and what the
// measurement cost (hits are credited with that much saved wall-clock).
type entry struct {
	perf float64
	cost time.Duration
}

// flight is one claimed measurement: its leader settles or abandons it,
// and every other claimant of the key waits on it. It implements
// search.Claim.
type flight struct {
	c     *Cache
	sh    *shard
	key   string
	start time.Time
	done  chan struct{} // closed when the leader settles or abandons
	perf  float64       // valid when !failed, after done
	cost  time.Duration // ditto
	// failed means the leader abandoned the claim; followers claim again.
	failed bool
	// hit marks a claim the memo answered: waiting on it is a hit, not a
	// coalesced measurement.
	hit bool
	// layer and cfg, set on a full-fidelity claim through a Layer, route
	// the leader's settled truth to the layer's gate and calibration.
	layer *Layer
	cfg   search.Config
}

type shard struct {
	mu       sync.Mutex
	vals     map[string]entry
	inflight map[string]*flight
}

// Cache is the sharded exact-hit memo with singleflight coalescing. All
// methods are safe for concurrent use. Keys are canonical configuration
// strings (search.Config.Key); values are measured truths only — estimated
// performances never enter the memo.
type Cache struct {
	shards  []*shard
	metrics *Metrics
	// perShardCap bounds each shard's resident entries.
	perShardCap int

	// len tracks resident entries across shards (the size gauge's source).
	len atomic.Int64
	// costSum/costN track measurement costs for MeanCost.
	costSumNanos atomic.Int64
	costN        atomic.Int64
}

// New returns a cache with `shards` lock stripes (DefaultShards when <= 0),
// at most maxEntries resident entries (DefaultMaxEntries when 0; negative
// means unbounded) and the given metrics bundle (nil disables at ~zero
// cost). Several caches may share one Metrics bundle; the size gauge then
// carries their sum.
func New(shards, maxEntries int, m *Metrics) *Cache {
	if shards <= 0 {
		shards = DefaultShards
	}
	if maxEntries == 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := -1
	if maxEntries > 0 {
		if perShard = maxEntries / shards; perShard < 1 {
			perShard = 1
		}
	}
	c := &Cache{shards: make([]*shard, shards), metrics: m.orNop(), perShardCap: perShard}
	for i := range c.shards {
		c.shards[i] = &shard{vals: map[string]entry{}, inflight: map[string]*flight{}}
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[int(h.Sum32())%len(c.shards)]
}

// Lookup returns the memoized truth for key. A hit ticks the hit counter
// and credits the original measurement's cost as saved wall-clock; a miss
// ticks the miss counter.
func (c *Cache) Lookup(key string) (float64, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.vals[key]
	sh.mu.Unlock()
	if !ok {
		c.metrics.Misses.Inc()
		return 0, false
	}
	c.metrics.Hits.Inc()
	c.metrics.SavedSeconds.Add(e.cost.Seconds())
	return e.perf, true
}

// Peek returns the memoized truth for key without touching any metric.
func (c *Cache) Peek(key string) (float64, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.vals[key]
	sh.mu.Unlock()
	return e.perf, ok
}

// Put memoizes a truth obtained outside a claim — warm fills from the durable
// experience store, seeded historical pairs. cost is what re-measuring
// would take (0 when unknown); future hits are credited with it.
func (c *Cache) Put(key string, perf float64, cost time.Duration) {
	sh := c.shard(key)
	sh.mu.Lock()
	c.storeLocked(sh, key, perf, cost)
	sh.mu.Unlock()
	c.metrics.Size.Set(float64(c.len.Load()))
}

// storeLocked inserts (or overwrites) an entry, evicting an arbitrary
// resident one when the shard is at capacity. Callers hold sh.mu.
func (c *Cache) storeLocked(sh *shard, key string, perf float64, cost time.Duration) {
	if _, exists := sh.vals[key]; !exists {
		if c.perShardCap > 0 && len(sh.vals) >= c.perShardCap {
			for victim := range sh.vals { // arbitrary eviction: one map key
				delete(sh.vals, victim)
				c.len.Add(-1)
				break
			}
		}
		c.len.Add(1)
	}
	sh.vals[key] = entry{perf: perf, cost: cost}
	if cost > 0 {
		c.costSumNanos.Add(int64(cost))
		c.costN.Add(1)
	}
}

// closed is the done channel of claims the memo answered.
var closed = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

// claim returns the measurement ticket for key, so that key is measured at
// most once across concurrent claimants:
//
//   - a memo hit returns a resolved follower claim (counted as a hit);
//   - when another caller leads key, claim returns its flight to wait on
//     (counted as coalesced, with the leader's cost credited as saved, once
//     Wait returns its result);
//   - otherwise the caller becomes the leader (lead == true): it measures
//     and then must Settle or Abandon the flight. l, when non-nil, is the
//     Layer the leader's settled truth for cfg is reported to.
//
// Claiming does not block, so one caller can lead several keys at once and
// wait on its peers' keys only after settling its own.
func (c *Cache) claim(key string, l *Layer, cfg search.Config) (f *flight, lead bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.vals[key]; ok {
		sh.mu.Unlock()
		c.metrics.Hits.Inc()
		c.metrics.SavedSeconds.Add(e.cost.Seconds())
		return &flight{done: closed, perf: e.perf, hit: true}, false
	}
	if f := sh.inflight[key]; f != nil {
		sh.mu.Unlock()
		return f, false
	}
	f = &flight{c: c, sh: sh, key: key, start: time.Now(), done: make(chan struct{}), layer: l, cfg: cfg}
	sh.inflight[key] = f
	sh.mu.Unlock()
	return f, true
}

// Settle memoizes the leader's measurement and wakes the followers.
func (f *flight) Settle(perf float64) {
	c, sh := f.c, f.sh
	f.perf, f.cost = perf, time.Since(f.start)
	sh.mu.Lock()
	delete(sh.inflight, f.key)
	c.storeLocked(sh, f.key, perf, f.cost)
	sh.mu.Unlock()
	close(f.done)
	c.metrics.Size.Set(float64(c.len.Load()))
	if f.layer != nil {
		f.layer.observe(f.key, f.cfg, perf)
	}
}

// Abandon releases a leader's claim unmeasured — its session is going away.
// The followers wake and claim again, and one of them takes over: a dying
// session must not poison its peers.
func (f *flight) Abandon() {
	f.sh.mu.Lock()
	delete(f.sh.inflight, f.key)
	f.failed = true
	f.sh.mu.Unlock()
	close(f.done)
}

// Wait blocks until the flight's leader settles (ok) or abandons it (!ok:
// the caller must claim again). The wait is bounded by the leader's own
// measurement.
func (f *flight) Wait() (perf float64, ok bool) {
	<-f.done
	if f.failed {
		return 0, false
	}
	if !f.hit {
		m := f.c.metrics
		m.Coalesced.Inc()
		m.SavedSeconds.Add(f.cost.Seconds())
	}
	return f.perf, true
}

// Len returns the number of resident entries.
func (c *Cache) Len() int { return int(c.len.Load()) }

// MeanCost returns the mean cost of the measurements the cache has
// witnessed (0 when none carried a cost). The estimation gate credits each
// estimated answer with this much saved wall-clock.
func (c *Cache) MeanCost() time.Duration {
	n := c.costN.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(c.costSumNanos.Load() / n)
}
