package webservice

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"harmony/internal/search"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
)

// goldenRunDigest pins the simulator's output: the SHA-256 over every
// Result field of the goldenRuns sweep. Any change to the event order, the
// random draws or the arithmetic of a run changes it, so a refactor of the
// engine must leave it untouched.
const goldenRunDigest = "9eef41a4cf7fc7941bf435268d5988cbce2438567bc54123fed5641ee2444d2d"

// goldenRuns is the number of simulations in the sweep.
const goldenRuns = 420

// goldenCase builds run i of the sweep. The cases cycle through the three
// standard mixes and interpolations between them, fidelity 1, 0.5, 0.25
// and 0.111, 60-s and default 120-s horizons, browser populations scaled
// by a flash crowd, and accept queues small enough to drop requests, over
// seeded random configurations of the tuning space.
func goldenCase(i int, rng *stats.RNG) (Options, search.Config, tpcw.Mix) {
	space := Space()
	cfg := space.DefaultConfig()
	if i%7 != 0 {
		for d, p := range space.Params {
			cfg[d] = p.Min + p.Step*rng.Intn(p.NumValues())
		}
	}
	if i%6 == 5 {
		// Tiny accept queues in front of a starved worker pool drop
		// requests at the proxy and the app tier.
		cfg[PHTTPAcceptCount] = rng.Intn(3)
		cfg[PAJPAcceptCount] = rng.Intn(3)
		cfg[PAJPMaxProcessors] = 4
	}

	var mix tpcw.Mix
	switch i % 5 {
	case 0, 1, 2:
		mix = tpcw.StandardMixes()[i%5]
	case 3:
		mix = tpcw.Browsing.Interpolate(tpcw.Shopping, rng.Float64())
	case 4:
		mix = tpcw.Shopping.Interpolate(tpcw.Ordering, rng.Float64())
	}

	opts := Options{Seed: rng.Uint64(), Fidelity: []float64{1, 0.5, 0.25, 0.111}[i%4]}
	if i%3 != 2 {
		opts.Duration = 60 // else the default 120-s horizon
	}
	if i%8 == 3 {
		// A flash crowd's population, scaled the way Cluster.measure
		// scales it.
		opts.Browsers = int(130*(1+rng.Float64()) + 0.5)
	}
	return opts, cfg, mix
}

// hashResult appends every field of r to buf: float64s as their IEEE
// bits, ints as int64, both little-endian.
func hashResult(t *testing.T, buf []byte, r Result) []byte {
	v := reflect.ValueOf(r)
	for f := 0; f < v.NumField(); f++ {
		switch fv := v.Field(f); fv.Kind() {
		case reflect.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(fv.Float()))
		case reflect.Int:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(fv.Int()))
		default:
			t.Fatalf("Result.%s has kind %s; extend hashResult", v.Type().Field(f).Name, fv.Kind())
		}
	}
	return buf
}

// TestRunGolden checks that the simulator's results are bit-identical to
// the pinned sweep.
func TestRunGolden(t *testing.T) {
	rng := stats.NewRNG(20240611)
	var buf []byte
	drops := 0
	for i := 0; i < goldenRuns; i++ {
		opts, cfg, mix := goldenCase(i, rng)
		res, err := NewCluster(opts).Run(cfg, mix)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Dropped > 0 {
			drops++
		}
		buf = hashResult(t, buf, res)
	}
	if drops == 0 {
		t.Fatal("no run of the sweep dropped a request")
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != goldenRunDigest {
		t.Fatalf("result digest = %s, want %s: the simulator's output changed", got, goldenRunDigest)
	}
}
