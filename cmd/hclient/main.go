// Command hclient runs one synthetic tuning session against a harmonyd
// server and reports the outcome — a minimal client for smoke tests,
// crash-recovery drills and scripting.
//
// It registers a two-parameter integer spec, tunes a quadratic surface
// peaking at (-peak-x, -peak-y), and prints one summary line:
//
//	warm=true best=[20 45] perf=1000.00 evals=37 lowfi=0
//
// Alongside it, each session writes one timing line to stderr:
//
//	slowest_exchange_us=24816
//
// The figure is the longest wait, in microseconds, between consecutive
// measurement callbacks (the first counted from the start of tuning). In
// lockstep that is one exchange round trip, so it bounds every exchange of
// the session — load smokes take a p99 over it. It goes to stderr so
// stdout stays the deterministic summary that scripts diff and grep. Fleet
// mode prefixes both lines with the session's label.
//
// The client is fidelity-aware: when the server runs the hyperband kernel
// (harmonyd -search hyperband) and requests reduced-fidelity triage
// measurements, hclient shortens the simulated run — deterministically
// cheaper and noisier — and lowfi counts them. Against the default simplex
// kernel every request is full fidelity and the behaviour is unchanged.
//
// With -expect-warm the process exits 1 unless the server warm-started the
// session from a prior run — the assertion the CI crash-recovery job leans
// on: deposit, kill -9 the daemon, restart, and a matching session must
// come back warm from the on-disk experience database.
//
// With -drift-after N the client simulates workload drift: every report
// carries the current observed characteristic vector, and after N
// measurements the vector switches to -drift-chars while the quadratic
// optimum moves to (-drift-peak-x, -drift-peak-y). Against harmonyd
// -drift-detect this exercises the whole continuous-tuning loop: the
// server's EWMA tracker walks off the matched centroid, trips the
// detector, and funds a warm in-session re-tune toward the new optimum.
//
// With -mux N the client switches to fleet mode: it dials ONE connection,
// negotiates v4-mux session multiplexing, and runs N independent tuning
// sessions over it concurrently — one summary line per session plus a
// fleet line with the connection's frame/flush amortization:
//
//	mux: sessions=16 conns=1 frames=1204 flushes=389 frames_per_syscall=3.1
//
// Usage:
//
//	hclient -addr 127.0.0.1:7854 -app shop -chars 0.8,0.2 \
//	        -peak-x 20 -peak-y 45 -max-evals 150 [-expect-warm] \
//	        [-mux 16] \
//	        [-drift-after 40 -drift-chars 0.1,0.9 -drift-peak-x 50 -drift-peak-y 10]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/search"
	"harmony/internal/server"
)

const rsl = `
{ harmonyBundle x { int {0 60 1} } }
{ harmonyBundle y { int {0 60 1} } }
`

func main() {
	addr := flag.String("addr", "127.0.0.1:7854", "harmonyd address")
	app := flag.String("app", "hclient", "application name (sessions with the same app and spec share experience)")
	chars := flag.String("chars", "", "comma-separated workload characteristics, e.g. 0.8,0.2 (empty = no prior-run matching)")
	peakX := flag.Int("peak-x", 20, "x coordinate of the quadratic optimum")
	peakY := flag.Int("peak-y", 45, "y coordinate of the quadratic optimum")
	maxEvals := flag.Int("max-evals", 150, "exploration budget")
	expectWarm := flag.Bool("expect-warm", false, "exit 1 unless the server warm-starts this session")
	timeout := flag.Duration("timeout", 5*time.Second, "dial and I/O timeout")
	workers := flag.Int("workers", 1, "concurrent measurements over the pipelined protocol (1 = lockstep v1)")
	proto := flag.Int("proto", 2, "wire framing generation: 2 = JSON lines, 3 = length-prefixed binary")
	muxN := flag.Int("mux", 0, "fleet mode: run this many sessions multiplexed over ONE v4-mux connection (0 = single un-muxed session)")
	driftAfter := flag.Int("drift-after", 0, "simulate workload drift after this many measurements: report -drift-chars and move the optimum to (-drift-peak-x, -drift-peak-y); 0 = stationary")
	driftChars := flag.String("drift-chars", "", "post-drift characteristic vector reported alongside measurements (needs -drift-after)")
	driftPeakX := flag.Int("drift-peak-x", 50, "x coordinate of the post-drift optimum")
	driftPeakY := flag.Int("drift-peak-y", 10, "y coordinate of the post-drift optimum")
	flag.Parse()

	characteristics, err := parseChars(*chars)
	if err != nil {
		fatalf("bad -chars: %v", err)
	}
	driftVector, err := parseChars(*driftChars)
	if err != nil {
		fatalf("bad -drift-chars: %v", err)
	}
	if *driftAfter > 0 {
		if len(characteristics) == 0 || len(driftVector) != len(characteristics) {
			fatalf("-drift-after needs -chars and a -drift-chars of the same length")
		}
	}

	// runSession drives one full registered session on an established client
	// handle — the same body whether the handle owns its connection or is
	// one of a mux fleet's. Returns the warm-start flag.
	runSession := func(c *server.Client, label string) (bool, error) {
		window := 0
		if *workers > 1 {
			window = *workers
		}
		p := *proto
		if *muxN > 0 {
			p = 3 // mux is a v3 extension; the handle speaks frames by construction
		}
		if _, err := c.Register(rsl, server.RegisterOptions{
			MaxEvals:        *maxEvals,
			Improved:        true,
			App:             *app,
			Characteristics: characteristics,
			Window:          window,
			Proto:           p,
		}); err != nil {
			return false, fmt.Errorf("register: %w", err)
		}
		warm := c.WarmStarted()
		if *driftAfter > 0 {
			// Pre-drift reports carry the registered vector so the server's EWMA
			// tracker settles on the matched centroid before the drift hits.
			c.SetObserved(characteristics)
		}

		var lowFi, measured atomic.Int64
		var (
			gapMu   sync.Mutex
			last    time.Time
			slowest time.Duration
		)
		measure := func(cfg search.Config, fidelity float64) float64 {
			gapMu.Lock()
			now := time.Now()
			slowest = max(slowest, now.Sub(last))
			last = now
			gapMu.Unlock()
			px, py := *peakX, *peakY
			if *driftAfter > 0 && measured.Add(1) > int64(*driftAfter) {
				c.SetObserved(driftVector)
				px, py = *driftPeakX, *driftPeakY
			}
			dx, dy := float64(cfg[0]-px), float64(cfg[1]-py)
			perf := 1000 - dx*dx - dy*dy
			if !search.FullFidelity(fidelity) {
				// A shortened run: content-derived noise scaled by how much of
				// the measurement was skipped, so repeat probes are reproducible
				// no matter which worker measures them.
				lowFi.Add(1)
				h := uint64(cfg[0]*61+cfg[1])*0x9e3779b97f4a7c15 + 1
				h ^= h >> 29
				u := float64(h%1000)/999*2 - 1
				perf += 30 * (1 - fidelity) * u
			}
			return perf
		}
		var best *server.Best
		last = time.Now()
		if *workers > 1 {
			best, err = c.TuneParallelAt(measure, *workers)
		} else {
			best, err = c.TuneAt(measure)
		}
		if err != nil {
			return warm, fmt.Errorf("tune: %w", err)
		}
		fmt.Printf("%swarm=%v best=%v perf=%.2f evals=%d lowfi=%d\n", label, warm, best.Values, best.Perf, best.Evals, lowFi.Load())
		fmt.Fprintf(os.Stderr, "%sslowest_exchange_us=%d\n", label, slowest.Microseconds())
		return warm, nil
	}

	if *muxN > 0 {
		// Fleet mode: one connection, -mux sessions multiplexed over it.
		mx, err := server.DialMux(*addr, *timeout)
		if err != nil {
			fatalf("dial %s: %v", *addr, err)
		}
		defer mx.Close()
		var wg sync.WaitGroup
		var cold, failed atomic.Int64
		for i := 0; i < *muxN; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := mx.Session()
				defer c.Close()
				warm, err := runSession(c, fmt.Sprintf("session %d: ", i))
				if err != nil {
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "hclient: session %d: %v\n", i, err)
					return
				}
				if !warm {
					cold.Add(1)
				}
			}(i)
		}
		wg.Wait()
		frames, flushes := mx.Stats()
		fps := 0.0
		if flushes > 0 {
			fps = float64(frames) / float64(flushes)
		}
		fmt.Printf("mux: sessions=%d conns=1 frames=%d flushes=%d frames_per_syscall=%.1f conn_errors=%d\n",
			*muxN, frames, flushes, fps, mx.ConnErrors())
		if n := failed.Load(); n > 0 {
			fatalf("%d of %d mux sessions failed", n, *muxN)
		}
		if *expectWarm && cold.Load() > 0 {
			fatalf("%d of %d mux sessions were not warm-started (expected prior-run match)", cold.Load(), *muxN)
		}
		return
	}

	c, err := server.Dial(*addr, *timeout)
	if err != nil {
		fatalf("dial %s: %v", *addr, err)
	}
	defer c.Close()
	warm, err := runSession(c, "")
	if err != nil {
		fatalf("%v", err)
	}
	if *expectWarm && !warm {
		fatalf("session was not warm-started (expected prior-run match)")
	}
}

func parseChars(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hclient: "+format+"\n", args...)
	os.Exit(1)
}
