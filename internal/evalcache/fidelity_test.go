package evalcache_test

import (
	"testing"

	"harmony/internal/evalcache"
	"harmony/internal/search"
)

// The Layer must implement the (config, fidelity)-keyed external-cache
// contract.
var _ search.ExternalCache = (*evalcache.Layer)(nil)

func TestLayerFidelityKeying(t *testing.T) {
	layer := &evalcache.Layer{Cache: evalcache.New(0, 0, nil)}
	cfg := search.Config{4, 8}

	// Miss, then measure at fidelity 0.25.
	if _, _, ok := layer.LookupAt(cfg, 0.25); ok {
		t.Fatal("empty layer answered a probe")
	}
	calls := 0
	got := evalcache.MeasureVia(layer, cfg, 0.25, func() float64 { calls++; return 111 })
	if got != 111 || calls != 1 {
		t.Fatalf("MeasureVia = %v after %d calls, want 111 after 1", got, calls)
	}

	// The same (config, fidelity) pair is now answered measurement-free…
	if perf, est, ok := layer.LookupAt(cfg, 0.25); !ok || est || perf != 111 {
		t.Fatalf("LookupAt(0.25) = %v/%v/%v, want 111/false/true", perf, est, ok)
	}
	// …but a different fidelity of the same config is not…
	if _, _, ok := layer.LookupAt(cfg, 0.5); ok {
		t.Fatal("fidelity 0.5 probe answered from the 0.25 entry")
	}
	// …and neither is the full-fidelity probe: low entries never promote up.
	if _, _, ok := layer.Lookup(cfg); ok {
		t.Fatal("full-fidelity probe answered from a low-fidelity entry")
	}

	// Once the full truth is measured, it answers every fidelity (promotion).
	evalcache.MeasureVia(layer, cfg, 1, func() float64 { return 100 })
	for _, fid := range []float64{0.125, 0.25, 0.5, 1} {
		perf, est, ok := layer.LookupAt(cfg, fid)
		if !ok || est || perf != 100 {
			t.Fatalf("promoted LookupAt(%v) = %v/%v/%v, want 100/false/true", fid, perf, est, ok)
		}
	}
}

func TestLayerFidelityFullDelegates(t *testing.T) {
	layer := &evalcache.Layer{Cache: evalcache.New(0, 0, nil)}
	cfg := search.Config{1, 2}
	// Full fidelity (0 and ≥1) must be indistinguishable from the plain path.
	perf := evalcache.MeasureVia(layer, cfg, 1, func() float64 { return 7 })
	if perf != 7 {
		t.Fatalf("MeasureVia(1) = %v, want 7", perf)
	}
	if got, est, ok := layer.LookupAt(cfg, 0); !ok || est || got != 7 {
		t.Fatalf("LookupAt(0) = %v/%v/%v, want 7/false/true", got, est, ok)
	}
	if got, _, ok := layer.Lookup(cfg); !ok || got != 7 {
		t.Fatalf("Lookup = %v/%v, want 7/true", got, ok)
	}
}
