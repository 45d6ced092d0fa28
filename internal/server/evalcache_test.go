package server

import (
	"bytes"
	"slices"
	"strconv"
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
	c := dial(t, addr)
	if _, err := c.Register(quadRSL, opts); err != nil {
		t.Fatal(err)
	}
	measured := 0
	best, err := c.Tune(func(cfg search.Config) float64 {
		measured++
		return cacheQuad(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Perf < 900 {
		t.Fatalf("best = %+v, want a near-optimal maximum", best)
	}
	return measured
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

// TestSharedCacheCoalescesConcurrentSessions: two concurrent sessions of
// one namespace never pay twice for one configuration — singleflight
// coalesces live duplicates and exact hits cover the rest, so the combined
// client-side measurement count stays below two solo sessions.
func TestSharedCacheCoalescesConcurrentSessions(t *testing.T) {
	// Baseline: how much one solo session measures.
	_, soloAddr, _ := startCacheServer(t, CacheOff)
	opts := RegisterOptions{App: "webapp", MaxEvals: 150, Improved: true}
	solo := tuneCounting(t, soloAddr, opts)

	_, addr, m := startCacheServer(t, CacheShared)
	var wg sync.WaitGroup
	totals := make([]int, 2)
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Register(quadRSL, opts); err != nil {
				t.Error(err)
				return
			}
			measured := 0
			if _, err := c.Tune(func(cfg search.Config) float64 {
				measured++
				time.Sleep(200 * time.Microsecond) // widen the overlap window
				return cacheQuad(cfg)
			}); err != nil {
				t.Error(err)
				return
			}
			totals[i] = measured
		}(i)
	}
	wg.Wait()
	combined := totals[0] + totals[1]
	if combined >= 2*solo {
		t.Fatalf("concurrent sessions measured %d configs combined (solo %d): nothing was shared", combined, solo)
	}
	if m.Hits.Value()+m.Coalesced.Value() == 0 {
		t.Fatal("neither exact hits nor coalesced measurements were recorded")
	}
}

// TestSharedCacheLeaderDisconnectTakeover: session A leads a configuration
// of the shared cache and its client disconnects before reporting it, while
// session B of the same namespace follows that configuration. A's kernel
// unwinds and abandons its claim; B takes over, measures the configuration
// itself and completes. Nothing is left running afterwards.
func TestSharedCacheLeaderDisconnectTakeover(t *testing.T) {
	base := settleGoroutines(0)
	s, addr, m := startCacheServer(t, CacheShared)

	// A: a raw lockstep session that takes the first configuration and
	// never reports it.
	a := rawDial(t, addr)
	a.write(`{"op":"register","rsl":` + strconv.Quote(quadRSL) + `,"app":"webapp","max_evals":150,"improved":true}`)
	if _, reg := a.read(); reg.Op != "registered" {
		t.Fatalf("A register reply = %+v", reg)
	}
	a.write(`{"op":"fetch"}`)
	_, cfg := a.read()
	if cfg.Op != "config" {
		t.Fatalf("A's first reply = %+v, want a config", cfg)
	}
	x := search.Config(cfg.Values)

	// B: the same registration, so its kernel asks for X first and follows
	// A's claim on it.
	b := dial(t, addr)
	if _, err := b.Register(quadRSL, RegisterOptions{App: "webapp", MaxEvals: 150, Improved: true}); err != nil {
		t.Fatal(err)
	}
	var measured []search.Config
	done := make(chan error, 1)
	go func() {
		_, err := b.Tune(func(cfg search.Config) float64 {
			measured = append(measured, cfg)
			return cacheQuad(cfg)
		})
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if bytes.Contains(bytes.Join(stacks(), nil), []byte("evalcache.(*flight).Wait(")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("B never waited on A's claim")
		}
	}
	a.conn.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("B's session: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("B never completed after A disconnected")
	}
	if len(measured) == 0 || !slices.Equal(measured[0], x) {
		t.Fatalf("B's first measurement = %v, want the abandoned %v", measured, x)
	}
	if n := m.Coalesced.Value(); n != 0 {
		t.Fatalf("coalesced = %d, want 0: nobody measured X for B", n)
	}
	b.Close()
	s.Close()
	if all := settleGoroutines(base); all > base {
		t.Errorf("%d goroutines after teardown, baseline %d", all, base)
	}
}
