package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"harmony/internal/evalcache"
	"harmony/internal/expdb"
	"harmony/internal/obs"
	"harmony/internal/server"
)

// env is what every run of one workload shares: its sizes, the inputs
// generated from the seed, the truths the prepared store holds, and the
// prepared data dir.
type env struct {
	w        workload
	sz       sizes
	in       []sessionInput
	prior    []*ledger // per web app: the truths prior runs reported
	dir      string    // this workload's scratch directory
	prepared string    // durable workloads: the data dir every round copies
}

// phase is one run of a workload: sz.Rounds rounds, each of which boots a
// fresh daemon (from the prepared data dir, for a durable workload), drives
// its share of the sessions and shuts the daemon down. Rounds are
// independent repeats of one scenario; their timed phases add up.
type phase struct {
	setup []time.Duration // per boot, idle or not
	calib []time.Duration // before every round and after the last
	// setupScaled is setup in seconds, each scaled by the calibration just
	// before it.
	setupScaled []float64
	rate        []float64     // per round: completed sessions per second
	cpuPer      []float64     // per round: CPU milliseconds per session
	wall        time.Duration // timed phases, summed
	mallocs     uint64
	workers     []*worker
	out         []outcome
	apps        []webApp

	// Every round's daemon registers its metrics on reg, so the handles
	// below hold the phase's totals.
	reg *obs.Registry
	sm  *server.Metrics
	cm  *evalcache.Metrics
	em  *expdb.Metrics
	// probe is what the decorators on the server's hooks saw (traced only).
	probe *layerProbe

	frames   uint64 // mux client frames and the flushes that carried them
	flushes  uint64
	connErrs int64
}

// runPhase runs every round and checks each. It returns the correctness
// problems it found; an error means the run itself could not be carried
// out.
func runPhase(e *env, traced bool) (*phase, []string, error) {
	p := &phase{reg: obs.NewRegistry(), out: make([]outcome, len(e.in))}
	p.sm, p.cm, p.em = server.NewMetrics(p.reg), evalcache.NewMetrics(p.reg), expdb.NewMetrics(p.reg)
	if traced {
		p.probe = &layerProbe{}
	}
	per := len(e.in) / e.sz.Rounds
	sample := (len(e.in) + maxSpanSessions - 1) / maxSpanSessions
	boots := e.sz.Boots
	if traced {
		boots = 1
	}
	var problems []string
	for round := 0; round < e.sz.Rounds; round++ {
		lo, hi := round*per, (round+1)*per
		if round == e.sz.Rounds-1 {
			hi = len(e.in)
		}
		cal := calibrate()
		p.calib = append(p.calib, cal)
		baseline := runtime.NumGoroutine()
		// Idle boots, with no sessions, only add setup_s samples.
		for i := 1; i < boots; i++ {
			d, _, _, err := p.setUp(e, fmt.Sprintf("idle-%d-%d", round, i), cal)
			if err != nil {
				return nil, nil, err
			}
			if err := d.shutdown(); err != nil {
				problems = append(problems, fmt.Sprintf("round %d: idle boot: shutdown: %v", round, err))
			}
		}
		// An idle mux boot's negotiating sessions start and fail on the
		// daemon; the round's accounting begins after them.
		started := p.sm.SessionsStarted.Value()
		d, apps, rsl, err := p.setUp(e, fmt.Sprintf("data-%t-%d", traced, round), cal)
		if err != nil {
			return nil, nil, err
		}
		p.apps = apps

		r := &runner{w: e.w, sz: e.sz, d: d, in: e.in[lo:hi], out: p.out[lo:hi], base: lo,
			apps: apps, rsl: rsl, sample: sample}
		for _, l := range e.prior {
			r.ledgers = append(r.ledgers, l.clone())
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		workers := r.run(traced)
		wall, cpu := time.Since(r.t0), cpuTime()-cpu0
		runtime.ReadMemStats(&ms1)
		p.wall += wall
		p.rate = append(p.rate, float64(hi-lo)/wall.Seconds())
		p.cpuPer = append(p.cpuPer, float64(cpu)/float64(time.Millisecond)/float64(hi-lo))
		p.mallocs += ms1.Mallocs - ms0.Mallocs
		p.workers = append(p.workers, workers...)
		for _, mx := range d.muxes {
			frames, flushes := mx.Stats()
			p.frames += frames
			p.flushes += flushes
			p.connErrs += mx.ConnErrors()
		}

		if err := d.shutdown(); err != nil {
			problems = append(problems, fmt.Sprintf("round %d: shutdown: %v", round, err))
		}
		for _, msg := range p.check(r, started, baseline) {
			problems = append(problems, fmt.Sprintf("round %d: %s", round, msg))
		}
	}
	p.calib = append(p.calib, calibrate())
	return p, problems, nil
}

// setUp times one setup: the daemon's boot (with expdb recovery on a copy of
// the prepared data dir, made untimed under name), the application model
// and, for mux workloads, the shared connections. cal is the calibration
// taken just before, which scales this one sample: a boot takes well under
// the time the machine's speed holds still.
func (p *phase) setUp(e *env, name string, cal time.Duration) (*daemon, []webApp, string, error) {
	dataDir := ""
	if e.w.durable {
		dataDir = filepath.Join(e.dir, name)
		if err := copyDir(e.prepared, dataDir); err != nil {
			return nil, nil, "", err
		}
	}
	start := time.Now()
	rsl, apps := quadRSL, []webApp(nil)
	if e.w.web {
		rsl, apps = webRSL(), webApps(e.w.apps())
	}
	d, err := boot(e.w, dataDir, p.reg, p.probe)
	if err != nil {
		return nil, nil, "", fmt.Errorf("boot: %w", err)
	}
	t := time.Since(start)
	p.setup = append(p.setup, t)
	p.setupScaled = append(p.setupScaled, t.Seconds()*calibrationRef.Seconds()/cal.Seconds())
	return d, apps, rsl, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *phase) completed() int { return doneCount(p.out) }

func doneCount(out []outcome) int {
	n := 0
	for _, o := range out {
		if o.done {
			n++
		}
	}
	return n
}

// failed counts dial, session, protocol and connection errors.
func (p *phase) failed() int {
	n := int(p.connErrs)
	for _, wk := range p.workers {
		n += wk.dialErrs + wk.sessErrs + wk.protoErrs
	}
	return n
}

// check verifies a finished round: every session completed and the
// daemon's own accounting agrees (started before the round is given), every
// session's best is a full-fidelity truth a client reported for that
// configuration, and the goroutine count is back to where it was before
// the daemon booted. Failed sessions are counted once, for the whole run.
func (p *phase) check(r *runner, started uint64, baseline int) []string {
	var problems []string
	if completed := doneCount(r.out); completed != len(r.in) {
		problems = append(problems, fmt.Sprintf("%d of %d sessions completed", completed, len(r.in)))
	}
	nowStarted := p.sm.SessionsStarted.Value()
	done, failures := p.sm.SessionsCompleted.Value(), p.sm.SessionFailures.Value()
	if nowStarted != done+failures || nowStarted-started != uint64(len(r.in)) {
		problems = append(problems, fmt.Sprintf("harmony_sessions_started %d != completed %d + failed %d, or not %d more than before",
			nowStarted, done, failures, len(r.in)))
	}
	unreported := 0
	for i, o := range r.out {
		if o.done && !o.reported {
			if unreported < 3 {
				problems = append(problems, fmt.Sprintf("session %d: best %v = %v is not a full-fidelity perf a client reported",
					r.base+i, o.best, o.bestPerf))
			}
			unreported++
		}
	}
	if unreported > 3 {
		problems = append(problems, fmt.Sprintf("%d sessions in all reported a best no client measured", unreported))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		problems = append(problems, fmt.Sprintf("%d goroutines after shutdown, %d before boot", n, baseline))
	}
	return problems
}

// endToEnd computes the end-to-end metrics and their sample counts. The
// session rate and CPU per session are medians over the rounds, which keeps
// one disturbed round from moving a run. The timings are scaled to the
// reference machine's speed (see calibrate): setup_s sample by sample, the
// others by the run's speed. raw holds them as measured, with the mean
// calibration. Every per-session value is summed in session order, so the
// deterministic metrics repeat bit for bit.
func (p *phase) endToEnd(e *env) (vals map[string]float64, samples map[string]int, raw map[string]float64) {
	vals, samples = map[string]float64{}, map[string]int{}
	completed := float64(p.completed())
	setup := make([]float64, len(p.setup))
	for i, s := range p.setup {
		setup[i] = s.Seconds()
	}
	vals["setup_s"], samples["setup_s"] = median(setup), len(setup)

	var lat []time.Duration
	exchanges := 0
	for _, wk := range p.workers {
		lat = append(lat, wk.lat...)
		exchanges += wk.exchanges
	}
	vals["sessions_per_s"] = median(p.rate)
	vals["exchange_p50_us"] = usec(percentile(lat, 0.50))
	vals["exchange_p99_us"] = usec(percentile(lat, 0.99))
	vals["cpu_ms_per_session"] = median(p.cpuPer)
	vals["allocs_per_exchange"] = ratio(float64(p.mallocs), float64(exchanges))
	samples["sessions_per_s"], samples["cpu_ms_per_session"] = len(p.rate), len(p.cpuPer)
	samples["exchange_p50_us"], samples["exchange_p99_us"] = len(lat), len(lat)
	samples["allocs_per_exchange"] = exchanges

	f := speed(p.calib)
	raw = map[string]float64{"calibration_ms": calibrationRef.Seconds() * 1e3 / f}
	for _, name := range timings {
		raw[name] = vals[name]
		switch name {
		case "setup_s":
			vals[name] = median(p.setupScaled)
		case "sessions_per_s":
			vals[name] /= f
		default:
			vals[name] *= f
		}
	}

	truths := p.truths(e)
	var sum paperStats
	var best float64
	measured := 0
	for i, o := range p.out {
		if !o.done {
			continue
		}
		sum.measureS += o.paper.measureS
		sum.to98S += o.paper.to98S
		sum.evalsTo98 += o.paper.evalsTo98
		if o.paper.measured {
			sum.initial += o.paper.initial
			measured++
		}
		best += truths[i]
	}
	vals["measure_s_per_session"] = ratio(sum.measureS, completed)
	vals["measure_s_to_98"] = ratio(sum.to98S, completed)
	vals["evals_to_98"] = ratio(sum.evalsTo98, completed)
	vals["initial_frac"] = ratio(sum.initial, float64(measured))
	vals["best_perf"] = ratio(best, completed)
	for _, name := range deterministic {
		samples[name] = int(completed)
	}
	samples["initial_frac"] = measured
	return vals, samples, raw
}

// truths re-measures every completed session's best configuration at full
// fidelity on the session's own application, on as many goroutines as the
// workload has clients.
func (p *phase) truths(e *env) []float64 {
	out := make([]float64, len(p.out))
	n := e.w.apps()
	parallel(n, func(k int) error {
		for i := k; i < len(p.out); i += n {
			in, o := &e.in[i], &p.out[i]
			switch {
			case !o.done:
			case !e.w.web:
				out[i] = quad(o.best, in.cx, in.cy)
			default:
				out[i] = p.apps[in.app].cluster.ObjectiveStableAt(*in.mix).MeasureAt(o.best, 1)
			}
		}
		return nil
	})
	return out
}

// layers computes the per-layer metrics of a traced phase. untraced is the
// same workload's untraced phase (for the tracing overhead) and micro the
// micro-benchmark results, folded in by metric name.
func (p *phase) layers(untraced *phase, micro map[string]float64) (map[string]float64, map[string]int) {
	vals, samples := map[string]float64{}, map[string]int{}
	for name, v := range micro {
		vals[name] = v
	}
	completed := float64(p.completed())
	var (
		dial, register, measure []time.Duration
		wall, exch, meas        time.Duration
		covered, coveredWall    time.Duration
		exchanges               int
	)
	for _, wk := range p.workers {
		tl := wk.tl
		dial = append(dial, tl.dial...)
		register = append(register, tl.register...)
		measure = append(measure, tl.measure...)
		wall, exch, meas = wall+tl.wall, exch+tl.exch, meas+tl.meas
		covered, coveredWall = covered+tl.covered, coveredWall+tl.coveredWall
		exchanges += wk.exchanges
	}
	pr, sm := p.probe, p.sm
	dial = append(dial, pr.dials...)
	vals["server.dial_us_p50"], samples["server.dial_us_p50"] = usec(percentile(dial, 0.5)), len(dial)
	vals["server.register_us_p50"] = usec(percentile(register, 0.5))
	vals["server.register_us_p99"] = usec(percentile(register, 0.99))
	samples["server.register_us_p50"], samples["server.register_us_p99"] = len(register), len(register)
	vals["server.exchanges_per_session"] = ratio(float64(exchanges), completed)
	vals["server.blocked_frac"] = ratio(exch.Seconds(), wall.Seconds())
	vals["server.faults"] = float64(sm.Faults.Value())

	vals["mux.client_frames_per_flush"] = ratio(float64(p.frames), float64(p.flushes))
	vals["mux.server_frames_per_flush"] = ratio(sm.MuxCorkedFlushFrames.Sum(), float64(sm.MuxCorkedFlushFrames.Count()))
	vals["mux.sessions_per_conn"] = 1
	if n := sm.MuxSessionsPerConn.Count(); n > 0 {
		vals["mux.sessions_per_conn"] = sm.MuxSessionsPerConn.Sum() / float64(n)
	}
	vals["mux.credit_stalls"] = float64(sm.MuxCreditStalls.Value())
	vals["mux.evictions"] = float64(sm.MuxEvictions.Value())

	vals["ctlplane.events_per_session"] = ratio(float64(pr.events.Load()), completed)
	if n := pr.emitted.Load(); n > 0 {
		vals["ctlplane.emit_ns_mean"], samples["ctlplane.emit_ns_mean"] = float64(pr.emitNanos.Load())/float64(n), int(n)
	}
	vals["search.evals_per_session"] = ratio(float64(pr.evals.Load()), completed)
	vals["search.simplex_ops_per_session"] = ratio(float64(pr.simplex.Load()), completed)
	vals["search.restarts_per_session"] = ratio(float64(pr.restarts.Load()), completed)
	vals["mfsearch.rungs_per_session"] = ratio(float64(pr.rungs.Load()), completed)
	vals["mfsearch.promotions_per_session"] = ratio(float64(pr.promotions.Load()), completed)
	vals["mfsearch.lowfi_frac"] = ratio(float64(pr.lowFi.Load()), float64(pr.evals.Load()))

	cm := p.cm
	probes := float64(cm.Hits.Value() + cm.Misses.Value())
	vals["evalcache.hit_frac"] = ratio(float64(cm.Hits.Value()), probes)
	vals["evalcache.estimated_frac"] = ratio(float64(cm.Estimated.Value()), probes)
	vals["evalcache.gate_reject_frac"] = ratio(float64(cm.GateRejects.Value()), float64(cm.Estimated.Value()+cm.GateRejects.Value()))
	vals["evalcache.coalesced"] = float64(cm.Coalesced.Value())
	vals["evalcache.truth_checks"] = float64(cm.TruthChecks.Value())
	vals["evalcache.est_abs_err_mean"] = ratio(cm.EstimateAbsError.Sum(), float64(cm.EstimateAbsError.Count()))

	vals["store.record_us_p50"] = usec(percentile(pr.record, 0.5))
	vals["store.record_us_p99"] = usec(percentile(pr.record, 0.99))
	samples["store.record_us_p50"], samples["store.record_us_p99"] = len(pr.record), len(pr.record)
	if len(pr.match) > 0 {
		vals["store.match_us_p50"], samples["store.match_us_p50"] = usec(percentile(pr.match, 0.5)), len(pr.match)
	}
	if len(pr.warmFill) > 0 {
		vals["store.warmfill_us_p50"], samples["store.warmfill_us_p50"] = usec(percentile(pr.warmFill, 0.5)), len(pr.warmFill)
	}
	vals["store.warm_frac"] = ratio(float64(sm.WarmStarts.Value()), completed)
	vals["expdb.recovered_records"] = ratio(float64(p.em.RecoveredRecords.Value()), float64(len(p.setup)))

	vals["webservice.measure_us_p50"], samples["webservice.measure_us_p50"] = usec(percentile(measure, 0.5)), len(measure)
	vals["webservice.measure_frac"] = ratio(meas.Seconds(), wall.Seconds())
	vals["trace.coverage_frac"] = ratio(covered.Seconds(), coveredWall.Seconds())
	// Each phase's rate is scaled by its own calibrations, so that the
	// machine changing speed between the two phases does not read as
	// tracing overhead.
	traced := completed / p.wall.Seconds() / speed(p.calib)
	plain := float64(untraced.completed()) / untraced.wall.Seconds() / speed(untraced.calib)
	vals["trace.overhead_frac"] = 1 - ratio(traced, plain)
	return vals, samples
}
