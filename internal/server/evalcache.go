package server

import (
	"fmt"

	"harmony/internal/evalcache"
	"harmony/internal/search"
)

// CacheScope selects how the measure-once evaluation cache (the evalcache
// layer) is shared across tuning sessions.
type CacheScope int

const (
	// CacheOff disables the layer entirely — the historical behaviour:
	// every probe the per-session dedup cache misses costs a real client
	// measurement.
	CacheOff CacheScope = iota
	// CacheSession gives each session a private cache, warm-filled at
	// registration with every truth the experience store holds for the
	// session's (app, spec) namespace. Sessions never see each other's
	// measurements, but they stop re-paying for prior runs.
	CacheSession
	// CacheShared shares one cache (and, when the gate is enabled, one
	// gate) across every session of an (app, spec) namespace: exact hits
	// cross session boundaries live. Two sessions that miss one
	// configuration at the same time each measure it.
	CacheShared
)

// ParseCacheScope parses the -eval-cache flag values.
func ParseCacheScope(s string) (CacheScope, error) {
	switch s {
	case "", "off":
		return CacheOff, nil
	case "session":
		return CacheSession, nil
	case "shared":
		return CacheShared, nil
	}
	return CacheOff, fmt.Errorf("server: unknown eval-cache scope %q (want off, session or shared)", s)
}

// String implements fmt.Stringer.
func (c CacheScope) String() string {
	switch c {
	case CacheSession:
		return "session"
	case CacheShared:
		return "shared"
	}
	return "off"
}

// namespaceCache is one (app, spec) namespace's measure-once state: the
// exact-hit memo and, when estimation is enabled, the shared gate.
type namespaceCache struct {
	cache *evalcache.Cache
	gate  *evalcache.Gate
}

// newNamespaceCache builds a cache (and gate, when enabled) for one
// namespace. Restricted specs hash into distinct namespace keys, so every
// session sharing a namespaceCache searches the same space.
func (s *Server) newNamespaceCache(space *search.Space) *namespaceCache {
	nc := &namespaceCache{cache: evalcache.New(0, 0, s.CacheMetrics)}
	if s.EstimateGate {
		nc.gate = evalcache.NewGate(space, s.GateOptions, s.CacheMetrics)
	}
	return nc
}

// warmFill hydrates a namespace cache with every (configuration,
// performance) truth the experience store holds under key — the prior-run
// measurements §4.2 deposited. Configurations that no longer fit the space
// (a foreign dimension after a spec change that somehow kept the key) are
// skipped.
func (s *Server) warmFill(key string, space *search.Space, nc *namespaceCache) {
	layer := &evalcache.Layer{Cache: nc.cache, Gate: nc.gate}
	s.store().WarmFill(key, func(cfg search.Config, perf float64) {
		if len(cfg) != space.Dim() || !space.Contains(cfg) {
			return
		}
		layer.Fill(cfg, perf)
	})
}

// evalLayer builds the measure-once layer for one session, or nil when the
// cache is off.
func (s *Server) evalLayer(key string, space *search.Space) *evalcache.Layer {
	switch s.EvalCache {
	case CacheSession:
		nc := s.newNamespaceCache(space)
		s.warmFill(key, space, nc)
		return &evalcache.Layer{Cache: nc.cache, Gate: nc.gate, TruthCheckEvery: s.GateOptions.TruthCheckEvery}
	case CacheShared:
		s.cacheMu.Lock()
		nc := s.caches[key]
		fresh := nc == nil
		if fresh {
			nc = s.newNamespaceCache(space)
			if s.caches == nil {
				s.caches = map[string]*namespaceCache{}
			}
			s.caches[key] = nc
		}
		s.cacheMu.Unlock()
		if fresh {
			// Fill outside the registry lock: the store walk may touch disk
			// state, and concurrent sessions can already use the (still
			// cold) cache — fills are hints, not correctness.
			s.warmFill(key, space, nc)
		}
		return &evalcache.Layer{Cache: nc.cache, Gate: nc.gate, TruthCheckEvery: s.GateOptions.TruthCheckEvery}
	}
	return nil
}
