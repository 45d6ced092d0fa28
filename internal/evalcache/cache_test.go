package evalcache

import (
	"sync"
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
					if _, ok := c.Lookup(k); !ok {
						c.Put(k, float64(len(k)), time.Millisecond)
					}
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
