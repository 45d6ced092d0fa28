package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"harmony/internal/evalcache"
	"harmony/internal/obs"
	"harmony/internal/search"
)

func startCacheServer(t *testing.T, scope CacheScope) (*Server, string, *evalcache.Metrics) {
	t.Helper()
	s := NewServer()
	m := evalcache.NewMetrics(obs.NewRegistry())
	s.EvalCache = scope
	s.CacheMetrics = m
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String(), m
}

func cacheQuad(cfg search.Config) float64 {
	dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
	return 1000 - dx*dx - dy*dy
}

// tuneCounting runs one full tuning session and returns how many
// configurations the client actually measured.
func tuneCounting(t *testing.T, addr string, opts RegisterOptions) int {
	t.Helper()
	_, measured, err := tuneSession(addr, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return measured
}

// tuneSession runs one full tuning session over cacheQuad and returns the
// session's best and how many configurations the client measured. after,
// when non-nil, runs after each measurement with the count so far. It is
// safe to call from any goroutine.
func tuneSession(addr string, opts RegisterOptions, after func(measured int)) (*Best, int, error) {
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	if _, err := c.Register(quadRSL, opts); err != nil {
		return nil, 0, err
	}
	measured := 0
	best, err := c.Tune(func(cfg search.Config) float64 {
		measured++
		if after != nil {
			after(measured)
		}
		return cacheQuad(cfg)
	})
	if err != nil {
		return nil, 0, err
	}
	if best.Perf < 900 {
		return nil, 0, fmt.Errorf("best = %+v, want a near-optimal maximum", best)
	}
	return best, measured, nil
}

// TestSharedCacheAnswersRepeatSessions: with the shared scope, the second
// session of the same (app, spec) namespace re-probes configurations the
// first already paid for — the server answers them from the measure-once
// layer and the client measures (almost) nothing.
func TestSharedCacheAnswersRepeatSessions(t *testing.T) {
	_, addr, m := startCacheServer(t, CacheShared)
	opts := RegisterOptions{App: "webapp", MaxEvals: 150, Improved: true}

	first := tuneCounting(t, addr, opts)
	if first == 0 {
		t.Fatal("first session measured nothing")
	}
	second := tuneCounting(t, addr, opts)
	if second*2 >= first {
		t.Fatalf("repeat session measured %d configs, first measured %d — the shared cache saved too little", second, first)
	}
	if m.Hits.Value() == 0 {
		t.Fatal("shared cache recorded no hits across sessions")
	}
	if m.SavedSeconds.Value() <= 0 {
		t.Fatal("no saved wall-clock credited")
	}
}

// TestSessionCacheWarmFillFromExperience: with the session scope, a fresh
// session's private cache is hydrated from the experience store's prior-run
// truths at registration, so a repeat workload re-measures little.
func TestSessionCacheWarmFillFromExperience(t *testing.T) {
	_, addr, m := startCacheServer(t, CacheSession)
	// Characteristics make the sessions deposit into (and warm-fill from)
	// the experience store.
	opts := RegisterOptions{
		App:             "webapp",
		MaxEvals:        150,
		Improved:        true,
		Characteristics: []float64{0.8, 0.1, 0.1},
	}

	first := tuneCounting(t, addr, opts)
	second := tuneCounting(t, addr, opts)
	if m.Fills.Value() == 0 {
		t.Fatal("no warm fills from the experience store")
	}
	if second >= first {
		t.Fatalf("warm-filled session measured %d configs, first measured %d — warm fill saved nothing", second, first)
	}
	if m.Hits.Value() == 0 {
		t.Fatal("warm-filled cache recorded no hits")
	}
}

// TestCacheOffIsUnchanged: the default scope keeps the historical
// behaviour — a repeat session re-measures everything.
func TestCacheOffIsUnchanged(t *testing.T) {
	_, addr, _ := startCacheServer(t, CacheOff)
	opts := RegisterOptions{App: "webapp", MaxEvals: 150, Improved: true}
	first := tuneCounting(t, addr, opts)
	second := tuneCounting(t, addr, opts)
	if first == 0 || second == 0 {
		t.Fatalf("sessions measured %d and %d configs; caching should be off", first, second)
	}
	if first != second {
		t.Fatalf("deterministic uncached sessions measured %d and %d configs, want identical", first, second)
	}
}

// TestSharedCacheConcurrentSessions: two concurrent sessions of one
// namespace share the shared scope's memo. The second starts once the first
// has measured a few configurations, so it answers those from the memo,
// and the two then run side by side. Exact answers leave a deterministic
// trajectory unchanged, so each session ends with the best and evaluation
// count of its solo run, and neither measures more than the solo run does.
func TestSharedCacheConcurrentSessions(t *testing.T) {
	opts := RegisterOptions{App: "webapp", MaxEvals: 150, Improved: true}
	_, soloAddr, _ := startCacheServer(t, CacheShared)
	solo, soloMeasured, err := tuneSession(soloAddr, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	const head = 5
	if soloMeasured <= 2*head {
		t.Fatalf("solo session measured %d configurations, too few to overlap", soloMeasured)
	}

	_, addr, m := startCacheServer(t, CacheShared)
	started := make(chan struct{})
	release := sync.OnceFunc(func() { close(started) })
	var wg sync.WaitGroup
	bests := make([]*Best, 2)
	measured := make([]int, 2)
	for i := range bests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			after := func(n int) {
				if i == 0 && n == head {
					release()
				}
				// Widen the window in which both sessions are live.
				time.Sleep(200 * time.Microsecond)
			}
			if i == 0 {
				defer release() // a failed first session must not strand the second
			} else {
				<-started
			}
			var err error
			if bests[i], measured[i], err = tuneSession(addr, opts, after); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, b := range bests {
		if !slices.Equal(b.Values, solo.Values) || b.Perf != solo.Perf || b.Evals != solo.Evals {
			t.Errorf("session %d ended at %+v, solo at %+v", i, *b, *solo)
		}
		if measured[i] > soloMeasured {
			t.Errorf("session %d measured %d configurations, solo %d", i, measured[i], soloMeasured)
		}
	}
	if m.Hits.Value() < head {
		t.Errorf("%d probes answered from the shared memo, want at least the first session's %d head start", m.Hits.Value(), head)
	}
}
