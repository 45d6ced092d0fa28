package evalcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/obs"
)

func TestLookupPutPeek(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	c := New(4, 0, m)

	if _, ok := c.Lookup("1,2"); ok {
		t.Fatal("lookup on empty cache hit")
	}
	if got := m.Misses.Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}

	c.Put("1,2", 42.5, 2*time.Second)
	perf, ok := c.Lookup("1,2")
	if !ok || perf != 42.5 {
		t.Fatalf("lookup = %v, %v, want 42.5, true", perf, ok)
	}
	if got := m.Hits.Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := m.SavedSeconds.Value(); got != 2 {
		t.Fatalf("saved seconds = %v, want 2 (the original measurement cost)", got)
	}

	// Peek must not move any metric.
	if perf, ok := c.Peek("1,2"); !ok || perf != 42.5 {
		t.Fatalf("peek = %v, %v", perf, ok)
	}
	if m.Hits.Value() != 1 || m.Misses.Value() != 1 {
		t.Fatal("peek moved hit/miss counters")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestDoMemoizes(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	c := New(0, 0, m)
	calls := 0
	measure := func() float64 { calls++; return 7 }

	perf, coalesced := do(c, "k", measure)
	if perf != 7 || coalesced {
		t.Fatalf("first claim = %v, %v", perf, coalesced)
	}
	perf, coalesced = do(c, "k", measure)
	if perf != 7 || !coalesced {
		t.Fatalf("second claim = %v, %v, want memo hit", perf, coalesced)
	}
	if calls != 1 {
		t.Fatalf("measure ran %d times, want 1", calls)
	}
	if got := m.Hits.Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

// TestDoSingleflight is the coalescing contract: n concurrent callers of
// one key share a single measurement.
func TestDoSingleflight(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	c := New(0, 0, m)

	const n = 8
	var calls atomic.Int32
	started := make(chan struct{}) // leader entered measure
	release := make(chan struct{}) // allow the leader to finish
	measure := func() float64 {
		calls.Add(1)
		close(started)
		<-release
		return 3.25
	}

	var wg sync.WaitGroup
	perfs := make([]float64, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		perfs[0], _ = do(c, "k", measure)
	}()
	<-started // the leader is inside measure; everyone else must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			perfs[i], _ = do(c, "k", func() float64 {
				t.Error("follower ran its own measurement")
				return 0
			})
		}(i)
	}
	// Give the followers a moment to park on the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := range perfs {
		if perfs[i] != 3.25 {
			t.Fatalf("caller %d: perf=%v", i, perfs[i])
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("measure ran %d times, want 1", calls.Load())
	}
	// Every follower either parked on the flight (coalesced) or raced the
	// leader's deposit (memo hit); none measured.
	if got := m.Coalesced.Value() + m.Hits.Value(); got != n-1 {
		t.Fatalf("coalesced+hits = %d, want %d", got, n-1)
	}
	if m.Coalesced.Value() == 0 {
		t.Fatal("no caller coalesced despite the blocked leader")
	}
}

// TestDoLeaderPanic: a panicking leader must not poison followers — one of
// them retries and becomes the new leader.
func TestDoLeaderPanic(t *testing.T) {
	c := New(0, 0, nil)
	inMeasure := make(chan struct{})
	die := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if rec := recover(); rec == nil {
				t.Error("leader did not re-panic")
			}
		}()
		do(c, "k", func() float64 {
			close(inMeasure)
			<-die
			panic(errors.New("objective died"))
		})
	}()
	<-inMeasure

	retried := make(chan float64, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		perf, coalesced := do(c, "k", func() float64 { return 9 })
		if coalesced {
			t.Errorf("follower retry: perf=%v coalesced=%v", perf, coalesced)
		}
		retried <- perf
	}()
	time.Sleep(20 * time.Millisecond) // follower parks on the flight
	close(die)
	if perf := <-retried; perf != 9 {
		t.Fatalf("follower takeover measured %v, want 9", perf)
	}
	wg.Wait()

	// The takeover's truth is memoized.
	if perf, ok := c.Peek("k"); !ok || perf != 9 {
		t.Fatalf("after takeover Peek = %v, %v", perf, ok)
	}
}

func TestEvictionBound(t *testing.T) {
	c := New(1, 2, nil) // one shard, two resident entries
	c.Put("a", 1, 0)
	c.Put("b", 2, 0)
	c.Put("c", 3, 0)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2 (bounded)", c.Len())
	}
	// The newest entry always survives an eviction.
	if perf, ok := c.Peek("c"); !ok || perf != 3 {
		t.Fatalf("newest entry evicted: %v, %v", perf, ok)
	}
}

func TestMeanCost(t *testing.T) {
	c := New(0, 0, nil)
	if c.MeanCost() != 0 {
		t.Fatal("mean cost of empty cache != 0")
	}
	c.Put("a", 1, 2*time.Second)
	c.Put("b", 2, 4*time.Second)
	if got := c.MeanCost(); got != 3*time.Second {
		t.Fatalf("mean cost = %v, want 3s", got)
	}
}

// TestConcurrentMixedKeys shakes the sharded paths under the race detector.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(0, 128, NewMetrics(obs.NewRegistry()))
	keys := []string{"1,1", "2,2", "3,3", "4,4", "5,5"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				switch i % 3 {
				case 0:
					do(c, k, func() float64 { return float64(len(k)) })
				case 1:
					c.Lookup(k)
				default:
					c.Put(k, float64(i), time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range keys {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("key %q missing after the storm", k)
		}
	}
}
