package main

import (
	"fmt"
	"strings"

	"harmony/internal/search"
	"harmony/internal/server"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

// workload is one fixed-work, closed-loop traffic mix. Every client waits
// for its next configuration before it measures, so the benchmark reports
// work per second at a stated client count. No workload holds more than two
// TCP connections open at once, and each does a fixed number of sessions —
// not a fixed duration — so two commits do the same work.
type workload struct {
	name string
	why  string
	// sessions is the fixed work of a run. On the 2-CPU machine the sizes
	// were calibrated on, the quadratic workloads' timed phases last about
	// 0.7 × runSeconds and the web workloads' 1 to 1.5 × runSeconds: their
	// paper metrics vary with the seed's inputs, so they get more sessions.
	sessions int
	// web selects the 10-parameter web cluster as the application; otherwise
	// each session tunes an inline 2-parameter quadratic with no cost.
	web    bool
	proto  int // 2 = JSON lines, 3 = binary frames
	mux    bool
	window int
	// conns is the number of TCP connections open at once and inFlight the
	// number of sessions in flight; a web workload runs one app per
	// connection, each app's sessions one after another.
	conns    int
	inFlight int
	maxEvals int
	// rounds is how many independent rounds a run makes, each booting a
	// fresh daemon from the same starting state.
	rounds int

	kernel  string
	cache   server.CacheScope
	gate    bool
	durable bool // a durable expdb store instead of the in-memory one
	ctl     bool // a ctlplane.Hub in the trace fan-out, as harmonyd -ctl
	filler  int  // durable: filler experiences in the prepared data dir
}

var workloads = []workload{
	{
		name:     "lockstep-v3",
		why:      "Quadratic sessions over plain v3, window 1, no cache or store work: the wire, lockstep loop, kernel handoff and simplex step do all the work.",
		sessions: 40000, proto: 3, window: 1, conns: 2, inFlight: 2, maxEvals: 40, rounds: 10,
		kernel: server.KernelSimplex,
	},
	{
		name:     "mux-fleet",
		why:      "The same sessions over v4-mux, 2 connections x 16 sessions, with the control-plane hub: mux demux, corked writers and SSE fan-out are hot.",
		sessions: 56000, proto: 3, mux: true, window: 1, conns: 2, inFlight: 32, maxEvals: 40, rounds: 10,
		kernel: server.KernelSimplex, ctl: true,
	},
	{
		name:     "warm-web",
		why:      "The paper workload: web-cluster sessions warm-started from a durable expdb, with the shared cache and estimation gate; the only place prior runs pay off.",
		sessions: 560, web: true, proto: 3, window: 1, conns: 2, inFlight: 2, maxEvals: 100, rounds: 25,
		kernel: server.KernelSimplex, cache: server.CacheShared, gate: true, durable: true, filler: 1000,
	},
	{
		name:     "hyperband-json",
		why:      "Web-cluster sessions through Hyperband over pipelined v2 JSON, window 4, session-scope cache and the in-memory store: the third loop and mfsearch rungs.",
		sessions: 120, web: true, proto: 2, window: 4, conns: 2, inFlight: 2, maxEvals: 100, rounds: 5,
		kernel: server.KernelHyperband, cache: server.CacheSession,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes is the fixed amount of work one run does; -compare refuses to
// compare runs whose sizes differ.
type sizes struct {
	Sessions int `json:"sessions"`
	InFlight int `json:"in_flight"`
	Conns    int `json:"conns"`
	MaxEvals int `json:"max_evals"`
	Filler   int `json:"filler"`
	Rounds   int `json:"rounds"`
	// Boots is how many daemons an untraced run boots before each round:
	// the round's own and idle ones, so that setup_s is a median of at least
	// minSetups boots spread over the run.
	Boots int `json:"boots_per_round"`
}

// minSetups is the fewest daemon boots an untraced full-size run times for
// setup_s.
const minSetups = 20

// runSeconds is the length of a run's timed phase the sizes are calibrated
// for, on the reference machine.
const runSeconds = 20

// sizes is the run's work; -quick divides it by 50 and makes one round
// with one boot.
func (w workload) sizes(quick bool) sizes {
	sessions, filler, rounds := w.sessions, w.filler, w.rounds
	boots := (minSetups + rounds - 1) / rounds
	if quick {
		sessions, filler, rounds, boots = sessions/50, filler/50, 1, 1
	}
	if floor := 2 * w.inFlight * rounds; sessions < floor {
		sessions = floor
	}
	return sizes{
		Sessions: sessions, InFlight: w.inFlight, Conns: w.conns,
		MaxEvals: w.maxEvals, Filler: filler, Rounds: rounds, Boots: boots,
	}
}

// apps is the number of independent applications (experience namespaces) a
// web workload tunes, one per connection.
func (w workload) apps() int { return w.conns }

// sessionInput is everything one client session receives, generated from
// the seed before the daemon boots.
type sessionInput struct {
	// app indexes the web application; mix is the traffic the session's
	// application serves and chars the characteristic vector it registers,
	// sampled from a request stream of that mix.
	app   int
	mix   *tpcw.Mix
	chars []float64
	// cx, cy is the quadratic's optimum.
	cx, cy int
}

// charSamples is the request-stream length each web session characterizes
// its workload from: long enough that sessions of one mix match each other,
// short enough that no two register the same vector.
const charSamples = 400

// mixJitter bounds how far a web session's traffic leans from its standard
// mix toward the next one (tpcw.Mix.Interpolate), so that no two sessions
// serve quite the same workload and prior runs are near, not exact, matches.
const mixJitter = 0.35

// inputs generates n sessions' inputs from the seed. Web sessions alternate
// between the apps; each app cycles through browsing, shopping, ordering.
func (w workload) inputs(seed uint64, n int) []sessionInput {
	rng := stats.NewRNG(seed ^ 0x6a09e667f3bcc908)
	mixes := tpcw.StandardMixes()
	in := make([]sessionInput, n)
	for i := range in {
		if !w.web {
			in[i].cx = rng.IntRange(0, 60)
			in[i].cy = rng.IntRange(0, 60)
			continue
		}
		app := i % w.apps()
		k := (i/w.apps() + app) % len(mixes)
		mix := mixes[k].Interpolate(mixes[(k+1)%len(mixes)], rng.Uniform(0, mixJitter))
		reqs := tpcw.GenerateStream(mix, charSamples, 1, rng)
		in[i] = sessionInput{app: app, mix: &mix, chars: tpcw.Characteristics(reqs)}
	}
	return in
}

// quadRSL is the tuning space of the quadratic sessions, the paper's
// two-parameter running example.
const quadRSL = `
{ harmonyBundle x { int {0 60 1} } }
{ harmonyBundle y { int {0 60 1} } }
`

// quad is the quadratic application: 1000 at the optimum (cx, cy).
func quad(cfg search.Config, cx, cy int) float64 {
	dx, dy := float64(cfg[0]-cx), float64(cfg[1]-cy)
	return 1000 - dx*dx - dy*dy
}

// webRSL renders webservice.Space() as the RSL a web session registers.
func webRSL() string {
	var b strings.Builder
	for _, p := range webservice.Space().Params {
		fmt.Fprintf(&b, "{ harmonyBundle %s { int {%d %d %d} } }\n", p.Name, p.Min, p.Max, p.Step)
	}
	return b.String()
}

// Simulated measurement cost model of the web cluster: a full measurement
// runs the whole horizon, a fidelity-f one the warmup plus f of the rest.
const (
	webHorizonS = 60
	webWarmupS  = 8
)

// simSeconds is the simulated cost of one client measurement at fidelity f.
func simSeconds(f float64) float64 {
	if search.FullFidelity(f) {
		return webHorizonS
	}
	return webWarmupS + (webHorizonS-webWarmupS)*f
}

// webApp is one web application: a simulated cluster with its own fixed
// seed. The applications are part of the workload, not of its inputs, so
// every seed tunes the same two systems. Measurements are deterministic in
// (mix, configuration, fidelity) and safe for concurrent use.
type webApp struct {
	name    string
	cluster *webservice.Cluster
}

// webApps builds the application models of a web workload.
func webApps(n int) []webApp {
	apps := make([]webApp, n)
	for a := range apps {
		apps[a] = webApp{
			name: fmt.Sprintf("web-%c", 'a'+a),
			cluster: webservice.NewCluster(webservice.Options{
				Duration: webHorizonS, Warmup: webWarmupS, Seed: uint64(a) + 1,
			}),
		}
	}
	return apps
}
