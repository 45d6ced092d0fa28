// Package evalcache implements the server's "measure once" layer: a
// sharded, concurrency-safe config→performance memo, plus an opt-in §4.3
// estimation gate that answers probes from the triangulation estimator's
// plane fit when the fit is well-supported.
//
// The dominant cost in Active Harmony is the real measurement — every
// simplex probe is a full client round-trip — and the same configuration is
// routinely probed more than once: by the same session (speculative rounds
// whose candidates are discarded), by an earlier session tuning the same
// application, or by a prior run whose trace sits in the durable experience
// database. Tuneful (Fekry et al.) and BestConfig (Zhu et al.) both frame
// online tuning as squeezing a fixed measurement budget; this layer's
// contract is simply "never pay twice for a point it already knows":
//
//   - exact hits return the previously measured truth, free;
//   - a miss is measured by the caller and stored with Layer.Put;
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

type shard struct {
	mu   sync.Mutex
	vals map[string]entry
}

// Cache is the sharded exact-hit memo. All methods are safe for concurrent
// use. Keys are canonical configuration strings (search.Config.Key); values
// are measured truths only — estimated performances never enter the memo.
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
		c.shards[i] = &shard{vals: map[string]entry{}}
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

// Put memoizes a truth under key: a measurement (Layer.Put), a warm fill
// from the durable experience store or a seeded historical pair. cost is
// what re-measuring would take (0 when unknown); future hits are credited
// with it.
func (c *Cache) Put(key string, perf float64, cost time.Duration) {
	sh := c.shard(key)
	sh.mu.Lock()
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
	sh.mu.Unlock()
	if cost > 0 {
		c.costSumNanos.Add(int64(cost))
		c.costN.Add(1)
	}
	c.metrics.Size.Set(float64(c.len.Load()))
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
