package webservice

import (
	"fmt"
	"testing"

	"harmony/internal/search"
	"harmony/internal/tpcw"
)

// fastOpts keeps unit-test simulations short.
func fastOpts(seed uint64) Options {
	return Options{Browsers: 80, Duration: 40, Warmup: 5, ThinkMean: 1.0, Seed: seed}
}

func TestSpaceShape(t *testing.T) {
	s := Space()
	if s.Dim() != NumParams {
		t.Fatalf("space dim = %d, want %d", s.Dim(), NumParams)
	}
	if s.Params[PMySQLNetBufferLength].Name != "MySQLNetBufferLength" {
		t.Errorf("parameter order broken: %v", s.Names())
	}
	if !s.Contains(s.DefaultConfig()) {
		t.Error("default config not in space")
	}
}

func TestRunDeterministic(t *testing.T) {
	s := Space()
	c := NewCluster(fastOpts(42))
	a, err := c.Run(s.DefaultConfig(), tpcw.Shopping)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run(s.DefaultConfig(), tpcw.Shopping)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedsVary(t *testing.T) {
	s := Space()
	a, _ := NewCluster(fastOpts(1)).Run(s.DefaultConfig(), tpcw.Shopping)
	b, _ := NewCluster(fastOpts(2)).Run(s.DefaultConfig(), tpcw.Shopping)
	if a.WIPS == b.WIPS && a.Completed == b.Completed {
		t.Error("different seeds produced identical results")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	c := NewCluster(fastOpts(1))
	if _, err := c.Run(search.Config{1, 2, 3}, tpcw.Shopping); err == nil {
		t.Error("short config accepted")
	}
}

func TestDefaultConfigInPlausibleBand(t *testing.T) {
	s := Space()
	for _, mix := range tpcw.StandardMixes() {
		res, err := NewCluster(Options{Seed: 7}).Run(s.DefaultConfig(), mix)
		if err != nil {
			t.Fatal(err)
		}
		if res.WIPS < 40 || res.WIPS > 140 {
			t.Errorf("%s default WIPS = %v, want in the paper's plausible band [40, 140]", mix.Name, res.WIPS)
		}
		if res.Completed <= 0 {
			t.Errorf("%s completed nothing", mix.Name)
		}
		if res.AvgResponse <= 0 {
			t.Errorf("%s avg response = %v", mix.Name, res.AvgResponse)
		}
	}
}

func TestTooFewWorkersStarvesSystem(t *testing.T) {
	// "Allowing only one process will make the system inefficient" (§4.1).
	s := Space()
	def := s.DefaultConfig()
	starved := def.Clone()
	starved[PAJPMaxProcessors] = 4
	base, _ := NewCluster(fastOpts(3)).Run(def, tpcw.Shopping)
	low, _ := NewCluster(fastOpts(3)).Run(starved, tpcw.Shopping)
	if low.WIPS >= base.WIPS*0.7 {
		t.Errorf("4 workers WIPS = %v, default = %v: starvation not visible", low.WIPS, base.WIPS)
	}
}

func TestTooManyWorkersThrashes(t *testing.T) {
	// "Allowing too many processes will cause thrashing" (§4.1).
	s := Space()
	def := s.DefaultConfig()
	thrash := def.Clone()
	thrash[PAJPMaxProcessors] = 60
	base, _ := NewCluster(fastOpts(3)).Run(def, tpcw.Shopping)
	high, _ := NewCluster(fastOpts(3)).Run(thrash, tpcw.Shopping)
	if high.WIPS >= base.WIPS*0.8 {
		t.Errorf("60 workers WIPS = %v, default = %v: thrashing not visible", high.WIPS, base.WIPS)
	}
}

func TestWorkersHaveInteriorOptimum(t *testing.T) {
	s := Space()
	def := s.DefaultConfig()
	wips := func(workers int) float64 {
		cfg := def.Clone()
		cfg[PAJPMaxProcessors] = workers
		res, _ := NewCluster(fastOpts(5)).Run(cfg, tpcw.Shopping)
		return res.WIPS
	}
	mid := wips(24)
	if lo := wips(4); lo >= mid {
		t.Errorf("workers=4 (%v) >= workers=24 (%v)", lo, mid)
	}
	if hi := wips(60); hi >= mid {
		t.Errorf("workers=60 (%v) >= workers=24 (%v)", hi, mid)
	}
}

func TestCacheMemoryMattersMoreForShopping(t *testing.T) {
	// The §6.2 observation: cache memory has more impact under the shopping
	// workload than under ordering.
	s := Space()
	def := s.DefaultConfig()
	swing := func(mix tpcw.Mix) float64 {
		lo, hi := 1e18, -1e18
		for _, v := range []int{16, 128, 240} {
			cfg := def.Clone()
			cfg[PProxyCacheMem] = v
			res, _ := NewCluster(fastOpts(9)).Run(cfg, mix)
			if res.WIPS < lo {
				lo = res.WIPS
			}
			if res.WIPS > hi {
				hi = res.WIPS
			}
		}
		return hi - lo
	}
	shop, order := swing(tpcw.Shopping), swing(tpcw.Ordering)
	if shop <= order {
		t.Errorf("cache-mem swing: shopping %v <= ordering %v", shop, order)
	}
}

func TestDelayedQueueMattersMoreForOrdering(t *testing.T) {
	// The §6.2 observation: database write buffering matters when most
	// requests place orders.
	s := Space()
	def := s.DefaultConfig()
	swing := func(mix tpcw.Mix) float64 {
		var lo, hi float64 = 1e18, -1e18
		for _, v := range []int{0, 28, 56} {
			cfg := def.Clone()
			cfg[PMySQLDelayedQueue] = v
			res, _ := NewCluster(fastOpts(11)).Run(cfg, mix)
			if res.WIPS < lo {
				lo = res.WIPS
			}
			if res.WIPS > hi {
				hi = res.WIPS
			}
		}
		return hi - lo
	}
	shop, order := swing(tpcw.Shopping), swing(tpcw.Ordering)
	if order <= shop {
		t.Errorf("delayed-queue swing: ordering %v <= shopping %v", order, shop)
	}
}

func TestDBConnectionsInteriorOptimumUnderOrdering(t *testing.T) {
	s := Space()
	def := s.DefaultConfig()
	wips := func(conns int) float64 {
		cfg := def.Clone()
		cfg[PMySQLMaxConnections] = conns
		res, _ := NewCluster(fastOpts(13)).Run(cfg, tpcw.Ordering)
		return res.WIPS
	}
	mid := wips(16)
	if lo := wips(4); lo >= mid {
		t.Errorf("conns=4 (%v) >= conns=16 (%v)", lo, mid)
	}
	if hi := wips(60); hi >= mid {
		t.Errorf("conns=60 (%v) >= conns=16 (%v): contention not visible", hi, mid)
	}
}

func TestMinObjectHurtsCaching(t *testing.T) {
	s := Space()
	def := s.DefaultConfig()
	cfgHi := def.Clone()
	cfgHi[PProxyMinObject] = 14
	base, _ := NewCluster(fastOpts(15)).Run(def, tpcw.Shopping)
	hi, _ := NewCluster(fastOpts(15)).Run(cfgHi, tpcw.Shopping)
	if hi.CacheHits >= base.CacheHits {
		t.Errorf("min-object=14 hits %d >= default hits %d", hi.CacheHits, base.CacheHits)
	}
}

func TestWIPSBreakdown(t *testing.T) {
	s := Space()
	res, err := NewCluster(fastOpts(17)).Run(s.DefaultConfig(), tpcw.Ordering)
	if err != nil {
		t.Fatal(err)
	}
	// The parts must sum to the whole.
	if d := res.WIPSb + res.WIPSo - res.WIPS; d > 1e-9 || d < -1e-9 {
		t.Errorf("WIPSb %v + WIPSo %v != WIPS %v", res.WIPSb, res.WIPSo, res.WIPS)
	}
	// The ordering mix is ~50% order-class; browsing is ~5%.
	if res.WIPSo < 0.3*res.WIPS {
		t.Errorf("ordering mix WIPSo = %v of %v, want a large share", res.WIPSo, res.WIPS)
	}
	br, err := NewCluster(fastOpts(17)).Run(s.DefaultConfig(), tpcw.Browsing)
	if err != nil {
		t.Fatal(err)
	}
	if br.WIPSo > 0.15*br.WIPS {
		t.Errorf("browsing mix WIPSo = %v of %v, want a small share", br.WIPSo, br.WIPS)
	}
}

func TestObjectiveVariesAndFixedModes(t *testing.T) {
	s := Space()
	c := NewCluster(fastOpts(21))
	def := s.DefaultConfig()

	fixed := c.Objective(tpcw.Shopping, false)
	if fixed.Measure(def) != fixed.Measure(def) {
		t.Error("fixed-seed objective not deterministic")
	}
	vary := c.Objective(tpcw.Shopping, true)
	a, b := vary.Measure(def), vary.Measure(def)
	if a == b {
		t.Error("varying objective returned identical measurements")
	}
}

func TestOrderingSlowerThanBrowsing(t *testing.T) {
	// Write-heavy workloads must cost more than browse-heavy ones.
	s := Space()
	br, _ := NewCluster(fastOpts(23)).Run(s.DefaultConfig(), tpcw.Browsing)
	or, _ := NewCluster(fastOpts(23)).Run(s.DefaultConfig(), tpcw.Ordering)
	if or.WIPS >= br.WIPS {
		t.Errorf("ordering WIPS %v >= browsing WIPS %v", or.WIPS, br.WIPS)
	}
}

func TestTuningImprovesOverDefault(t *testing.T) {
	// End-to-end sanity: the Nelder–Mead kernel must find a configuration
	// clearly better than the default on the simulated cluster.
	if testing.Short() {
		t.Skip("tuning run in -short mode")
	}
	s := Space()
	c := NewCluster(fastOpts(31))
	obj := c.Objective(tpcw.Ordering, true)
	base := c.Objective(tpcw.Ordering, false).Measure(s.DefaultConfig())
	res, err := search.NelderMead(s, obj, search.NelderMeadOptions{
		Direction: search.Maximize,
		MaxEvals:  120,
		Init:      search.DistributedInit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPerf < base*1.05 {
		t.Errorf("tuned WIPS %v not clearly better than default %v", res.BestPerf, base)
	}
}

func TestTinyAcceptQueueCausesDrops(t *testing.T) {
	// Saturate the app tier with a minimal accept queue: requests must be
	// dropped, and a roomier queue must drop fewer.
	s := Space()
	tight := s.DefaultConfig()
	tight[PAJPMaxProcessors] = 4 // starved workers → overload
	tight[PAJPAcceptCount] = 8   // minimal queue
	roomy := tight.Clone()
	roomy[PAJPAcceptCount] = 120

	tightRes, err := NewCluster(fastOpts(33)).Run(tight, tpcw.Ordering)
	if err != nil {
		t.Fatal(err)
	}
	roomyRes, err := NewCluster(fastOpts(33)).Run(roomy, tpcw.Ordering)
	if err != nil {
		t.Fatal(err)
	}
	if tightRes.Dropped == 0 {
		t.Error("overloaded tight queue produced no drops")
	}
	if roomyRes.Dropped >= tightRes.Dropped {
		t.Errorf("roomy queue dropped %d >= tight queue %d", roomyRes.Dropped, tightRes.Dropped)
	}
}

func TestWarmupExcludedFromWIPS(t *testing.T) {
	// With a warmup window approaching the duration, almost nothing counts.
	s := Space()
	short := Options{Browsers: 50, Duration: 20, Warmup: 19, ThinkMean: 1, Seed: 5}
	res, err := NewCluster(short).Run(s.DefaultConfig(), tpcw.Shopping)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewCluster(Options{Browsers: 50, Duration: 20, Warmup: 1, ThinkMean: 1, Seed: 5}).
		Run(s.DefaultConfig(), tpcw.Shopping)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed >= full.Completed {
		t.Errorf("19s warmup counted %d completions, 1s warmup %d", res.Completed, full.Completed)
	}
}

func TestUtilizationsWithinUnitRange(t *testing.T) {
	s := Space()
	res, err := NewCluster(fastOpts(35)).Run(s.DefaultConfig(), tpcw.Ordering)
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]float64{
		"proxy": res.ProxyUtil, "app": res.AppUtil, "db": res.DBUtil,
	} {
		if u < 0 || u > 1.000001 {
			t.Errorf("%s utilization = %v outside [0,1]", name, u)
		}
	}
}

func TestBrowsingHasMoreCacheHitsThanOrdering(t *testing.T) {
	s := Space()
	br, _ := NewCluster(fastOpts(37)).Run(s.DefaultConfig(), tpcw.Browsing)
	or, _ := NewCluster(fastOpts(37)).Run(s.DefaultConfig(), tpcw.Ordering)
	if br.CacheHits <= or.CacheHits {
		t.Errorf("browsing cache hits %d <= ordering %d", br.CacheHits, or.CacheHits)
	}
}

func TestRunAllocationsIndependentOfHorizon(t *testing.T) {
	// A run allocates its state once: request slots, the scheduler's
	// node slab and station queues are sized from the browser count, so
	// a longer horizon costs time, never allocations.
	cfg := Space().DefaultConfig()
	allocs := func(duration float64) float64 {
		c := NewCluster(Options{Duration: duration, Seed: 3})
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Run(cfg, tpcw.Shopping); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(60), allocs(240)
	if long > short {
		t.Errorf("a 240-s run allocates %v objects, a 60-s run %v: allocations grow with the horizon", long, short)
	}
	if long > 8 {
		t.Errorf("a 240-s run allocates %v objects, want at most 8", long)
	}
}

// BenchmarkRun measures one 60-s simulated run of the default
// configuration under the shopping mix, at full and at quarter fidelity.
func BenchmarkRun(b *testing.B) {
	cfg := Space().DefaultConfig()
	for _, f := range []float64{1, 0.25} {
		b.Run(fmt.Sprintf("fidelity=%v", f), func(b *testing.B) {
			c := NewCluster(Options{Duration: 60, Seed: 1, Fidelity: f})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(cfg, tpcw.Shopping); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
