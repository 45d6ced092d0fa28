// Command harmonyd runs the Active Harmony tuning server.
//
// Applications connect over TCP, register their tunable parameters in the
// resource specification language (including Appendix B's parameter
// restriction), then alternate fetching configurations and reporting
// measured performance; the server drives the Nelder–Mead tuning kernel.
//
// The daemon is built to stay up: per-connection read and write deadlines,
// a per-session failure budget for garbage and non-finite reports, and a
// graceful shutdown on SIGINT/SIGTERM that drains in-flight tuning sessions
// before a hard cutoff. Sessions cut off mid-tuning still deposit their
// partial traces into the experience store, so prior-run knowledge survives
// restarts of the clients (§4.2).
//
// And to be seen: -obs-addr exposes /metrics (Prometheus text format),
// /healthz and /debug/pprof; -log-level/-log-format control the structured
// session log (every record carries the session ID); -trace-out streams the
// typed tuning events of every session — evaluations, simplex operations,
// seeds, convergence decisions, failure-budget charges — as JSONL for
// offline trajectory analysis.
//
// And to remember: -data-dir backs the experience database with a
// WAL+snapshot store on disk, so prior-run knowledge — the paper's whole
// point — survives restarts and crashes of the daemon itself. A session
// deposited before a kill -9 still warm-starts its successors after the
// next boot.
//
// And to save: -eval-cache wires the measure-once layer — exact hits from
// prior runs (and, in the shared scope, from peer sessions) are free, and
// -estimate-gate optionally answers
// well-supported probes from the §4.3 triangulation plane fit instead of a
// client round-trip. -gate-truth-check-every keeps the gate honest by
// re-measuring a sample of its answers and publishing the absolute error.
//
// And to follow: -drift-detect watches the workload characteristics clients
// report alongside their measurements; when the live EWMA vector leaves the
// matched centroid for a full hysteresis window (-drift-threshold,
// -drift-window), the session deposits the finished phase's experience,
// re-matches the classifier against the live vector, and funds a warm
// in-session re-tune from the current best instead of waiting for the next
// cold session.
//
// And to steer: -ctl mounts the control plane on the observability
// endpoint — a REST/JSON API (/api/v1/sessions, /api/v1/expdb/...,
// retune), a Server-Sent-Events stream of the live tuning-event trace
// (/api/v1/events) and an embedded dashboard (/dashboard/).
//
// Usage:
//
//	harmonyd -addr :7854 -idle-timeout 5m -write-timeout 10s \
//	         -failure-budget 3 -drain-timeout 30s \
//	         -data-dir /var/lib/harmony -expdb-fsync always \
//	         -obs-addr 127.0.0.1:9154 -log-format json -trace-out trace.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harmony/internal/ctlplane"
	"harmony/internal/drift"
	"harmony/internal/evalcache"
	"harmony/internal/expdb"
	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7854", "listen address")
	maxEvals := flag.Int("max-evals", 10000, "hard cap on per-session exploration budgets")
	idleTimeout := flag.Duration("idle-timeout", 0, "disconnect clients idle for this long (0 = no limit); one measurement must fit inside it")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-reply write deadline (0 = no limit)")
	failureBudget := flag.Int("failure-budget", 3, "tolerated per-session faults (garbage lines, non-finite reports); negative = zero tolerance")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight sessions before the hard cutoff")
	dataDir := flag.String("data-dir", "", "durable experience database directory (empty = in-memory, lost on restart)")
	expdbFsync := flag.String("expdb-fsync", "always", "experience WAL fsync policy: always (every deposit durable) or none (OS page cache)")
	expdbSnapshot := flag.Int("expdb-snapshot-every", expdb.DefaultSnapshotEvery, "WAL records between snapshot+compaction cycles (negative = never)")
	compactAbove := flag.Int("experience-compact-above", expdb.DefaultCompactAbove, "per-workload-class experience count above which compaction runs (negative = never); bounds the in-memory and the durable store alike")
	mergeDist := flag.Float64("experience-merge-dist", expdb.DefaultMergeDist, "squared-error radius merging near-identical workload classes during compaction")
	keepRecords := flag.Int("experience-keep-records", expdb.DefaultKeepRecords, "best measurements each experience keeps through compaction")
	evalCache := flag.String("eval-cache", "off", "measure-once evaluation cache scope: off, session (private per session, warm-filled from prior runs) or shared (one memo per namespace: exact hits across sessions)")
	estimateGate := flag.Bool("estimate-gate", false, "answer well-supported probes from the triangulation plane fit instead of measuring (needs -eval-cache session|shared; trades trajectory identity for savings)")
	gateMaxDist := flag.Float64("gate-max-dist", evalcache.DefaultGateMaxDist, "estimation gate: max normalized distance from the target to any fitted vertex")
	gateMaxResidual := flag.Float64("gate-max-residual", evalcache.DefaultGateMaxRelResidual, "estimation gate: max plane-fit RMS residual relative to the vertex performance scale")
	gateMinRecords := flag.Int("gate-min-records", 0, "estimation gate: distinct truths required before estimating (0 = 3*(dim+1))")
	gateTruthEvery := flag.Int("gate-truth-check-every", 16, "estimation gate calibration: re-measure every Nth gated answer per session and record the absolute error (0 = never)")
	ctl := flag.Bool("ctl", false, "mount the control plane (REST API, SSE event stream, dashboard) on the observability endpoint (needs -obs-addr)")
	ctlReplay := flag.Int("ctl-replay", ctlplane.DefaultRingSize, "control plane: trace events retained for SSE replay/catch-up")
	searchKernel := flag.String("search", "simplex", "per-session tuning kernel: simplex (the trajectory-pinned Nelder–Mead loop) or hyperband (multi-fidelity successive halving seeded by the experience prior; asks fidelity-aware clients for cheap partial measurements)")
	driftDetect := flag.Bool("drift-detect", false, "watch live workload characteristics reported by clients and warm re-tune in-session when they drift off the matched centroid")
	driftThreshold := flag.Float64("drift-threshold", drift.DefaultThreshold, "drift detector: squared-error distance from the matched centroid that counts as drifted")
	driftWindow := flag.Int("drift-window", drift.DefaultWindow, "drift detector: consecutive over-threshold observations required before a re-tune triggers (hysteresis)")
	maxWindow := flag.Int("max-window", 0, "pipeline depth cap granted to protocol v2/v3 clients (0 = default 32; 1 or negative forces lockstep)")
	maxMuxSessions := flag.Int("max-mux-sessions", 0, "concurrent sessions allowed per multiplexed (v4-mux) connection (0 = default 256; negative refuses mux negotiation)")
	obsCfg := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	cacheScope, err := server.ParseCacheScope(*evalCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonyd:", err)
		os.Exit(1)
	}
	kernel, err := server.ParseSearchKernel(*searchKernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonyd:", err)
		os.Exit(1)
	}

	s := server.NewServer()
	s.SearchKernel = kernel
	s.MaxEvalsCap = *maxEvals
	s.IdleTimeout = *idleTimeout
	s.WriteTimeout = *writeTimeout
	s.FailureBudget = *failureBudget
	s.EvalCache = cacheScope
	s.MaxWindow = *maxWindow
	s.MaxMuxSessions = *maxMuxSessions
	s.EstimateGate = *estimateGate
	s.DriftDetect = *driftDetect
	s.DriftOptions = drift.Options{
		Threshold: *driftThreshold,
		Window:    *driftWindow,
	}
	s.GateOptions = evalcache.GateOptions{
		MaxVertexDist:   *gateMaxDist,
		MaxRelResidual:  *gateMaxResidual,
		MinRecords:      *gateMinRecords,
		TruthCheckEvery: *gateTruthEvery,
	}
	if *ctl && obsCfg.Addr == "" {
		fmt.Fprintln(os.Stderr, "harmonyd: -ctl needs -obs-addr (the control plane mounts on the observability endpoint)")
		os.Exit(1)
	}

	// The daemon is healthy once the listener is bound and until shutdown
	// begins.
	healthy := func() error {
		select {
		case <-listening:
			return nil
		default:
			return fmt.Errorf("listener not bound yet")
		}
	}
	rt, err := obsCfg.Start(healthy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmonyd:", err)
		os.Exit(1)
	}
	defer rt.Close()
	s.Logger = rt.Logger
	s.Metrics = server.NewMetrics(rt.Registry)
	s.Tracer = rt.Tracer()

	// Control plane: the SSE hub joins the trace fan-out (it never blocks
	// the kernel — slow subscribers drop), and the REST API + dashboard
	// mount on the observability mux. Health checks for the deeper
	// subsystems are registered below as those subsystems come up.
	var hub *ctlplane.Hub
	if *ctl {
		hub = ctlplane.NewHub(*ctlReplay, rt.Registry)
		defer hub.Close()
		s.Tracer = search.MultiTracer(s.Tracer, hub)
		rt.HTTP.Health.Register("accept_loop", s.AcceptLiveness)
	}
	if cacheScope != server.CacheOff {
		s.CacheMetrics = evalcache.NewMetrics(rt.Registry)
		rt.Logger.Info("measure-once evaluation cache enabled",
			"scope", cacheScope.String(), "estimate_gate", *estimateGate)
	}

	// The experience database. -experience-* bound it either way; with
	// -data-dir it is durable, and recovery (snapshot load, WAL replay,
	// torn-tail truncation) happens here, before the listener binds, so the
	// first session already sees everything prior runs learned.
	expOpts := expdb.Options{
		Dir:           *dataDir,
		SnapshotEvery: *expdbSnapshot,
		CompactAbove:  *compactAbove,
		MergeDist:     *mergeDist,
		KeepRecords:   *keepRecords,
		Logger:        rt.Logger,
		Metrics:       expdb.NewMetrics(rt.Registry),
	}
	var expStore *expdb.Store
	if *dataDir == "" {
		expStore = expdb.NewMemory(expOpts)
	} else {
		expOpts.Sync, err = expdb.ParseSyncPolicy(*expdbFsync)
		if err != nil {
			rt.Logger.Error("bad -expdb-fsync", "err", err)
			rt.Close()
			os.Exit(1)
		}
		expStore, err = expdb.Open(expOpts)
		if err != nil {
			rt.Logger.Error("opening experience database failed", "dir", *dataDir, "err", err)
			rt.Close()
			os.Exit(1)
		}
		rt.Logger.Info("durable experience database open",
			"dir", *dataDir, "fsync", expOpts.Sync.String(), "experiences", expStore.Len())
		if hub != nil {
			rt.HTTP.Health.Register("expdb_wal", func() error {
				if lag := expStore.FlushLag(); lag > time.Minute {
					return fmt.Errorf("WAL unflushed for %s", lag.Round(time.Second))
				}
				return nil
			})
		}
	}
	s.Experience = server.NewDurableStore(expStore, rt.Logger)

	bound, err := s.Listen(*addr)
	if err != nil {
		rt.Logger.Error("listen failed", "addr", *addr, "err", err)
		rt.Close()
		os.Exit(1)
	}
	close(listening)
	rt.Logger.Info("harmony server listening", "addr", bound.String())

	if hub != nil {
		// Mounting after Serve started is safe: ServeMux registration is
		// mutex-guarded, and until this point /api/v1 was a plain 404.
		api := &ctlplane.API{Sessions: s, Experience: s.ExperienceStore(), Hub: hub, Logger: rt.Logger}
		api.Register(rt.HTTP.Mux)
		rt.Logger.Info("control plane mounted",
			"addr", rt.HTTP.Addr.String(), "endpoints", "/api/v1/... /dashboard/")
	}

	// Graceful shutdown: the first signal drains in-flight sessions with a
	// hard cutoff after -drain-timeout; a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default handling: a second signal terminates immediately
	rt.Logger.Info("shutting down: draining sessions", "cutoff", *drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := s.Shutdown(drainCtx)
	// Fold the WAL into a snapshot and close the store — even after a
	// cutoff, severed sessions deposited partial traces worth keeping.
	if err := expStore.Close(); err != nil {
		rt.Logger.Error("closing experience database failed", "err", err)
	}
	if shutdownErr != nil {
		rt.Logger.Error("shutdown cutoff hit", "err", shutdownErr)
		rt.Close()
		os.Exit(1)
	}
	rt.Logger.Info("shutdown complete: all sessions drained")
}

// listening closes once the TCP listener is bound; /healthz keys off it.
var listening = make(chan struct{})
