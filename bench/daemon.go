package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/ctlplane"
	"harmony/internal/evalcache"
	"harmony/internal/expdb"
	"harmony/internal/history"
	"harmony/internal/obs"
	"harmony/internal/search"
	"harmony/internal/server"
)

// daemon is one in-process tuning server, booted the way harmonyd boots it:
// metrics into a registry, an info-level logger into io.Discard, the
// durable store and the control-plane hub when the workload asks for them,
// and a loopback TCP listener. Mux workloads dial their shared connections
// as part of the boot.
type daemon struct {
	srv   *server.Server
	addr  string
	db    *expdb.Store
	hub   *ctlplane.Hub
	muxes []*server.Mux
}

// boot starts a daemon for w with its metrics on reg. dataDir is the
// durable store's directory (durable workloads only). A non-nil probe
// decorates the server's Experience and Tracer hooks and records the mux
// dial times: the traced run.
func boot(w workload, dataDir string, reg *obs.Registry, probe *layerProbe) (*daemon, error) {
	logger, err := obs.NewLogger(io.Discard, slog.LevelInfo, "text")
	if err != nil {
		return nil, err
	}
	s := server.NewServer()
	s.SearchKernel = w.kernel
	s.WriteTimeout = 10 * time.Second
	s.FailureBudget = 3
	s.EvalCache = w.cache
	s.EstimateGate = w.gate
	if w.gate {
		// The default gate radius suits low-dimensional spaces; on the
		// 10-parameter cluster the nearest vertices rarely fall inside it,
		// so the gate is opened as harmonyd's -gate-max-dist and
		// -gate-max-residual allow.
		s.GateOptions = evalcache.GateOptions{MaxVertexDist: 0.45, MaxRelResidual: 0.10, TruthCheckEvery: 16}
	}
	s.Logger = logger
	s.Metrics = server.NewMetrics(reg)
	d := &daemon{srv: s}
	if w.ctl {
		d.hub = ctlplane.NewHub(ctlplane.DefaultRingSize, reg)
		s.Tracer = d.hub
	}
	if w.cache != server.CacheOff {
		s.CacheMetrics = evalcache.NewMetrics(reg)
	}
	if w.durable {
		d.db, err = expdb.Open(expdb.Options{Dir: dataDir, Sync: expdb.SyncAlways, Logger: logger, Metrics: expdb.NewMetrics(reg)})
		if err != nil {
			d.hub.Close()
			return nil, err
		}
		s.Experience = server.NewDurableStore(d.db, logger)
	}
	if probe != nil {
		s.Tracer = &probeTracer{next: s.Tracer, p: probe}
		s.Experience = &probeStore{Store: s.ExperienceStore(), p: probe}
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, d.shutdown())
	}
	d.addr = addr.String()
	for i := 0; w.mux && i < w.conns; i++ {
		start := time.Now()
		mx, err := server.DialMux(d.addr, 5*time.Second)
		if err != nil {
			return nil, errors.Join(err, d.shutdown())
		}
		if probe != nil {
			probe.note(&probe.dials, start)
		}
		d.muxes = append(d.muxes, mx)
	}
	return d, nil
}

// shutdown closes the mux connections, drains the server, closes the hub
// and folds the durable store into its snapshot.
func (d *daemon) shutdown() error {
	var errs []error
	for _, mx := range d.muxes {
		errs = append(errs, mx.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	errs = append(errs, d.srv.Shutdown(ctx))
	cancel()
	d.hub.Close()
	if d.db != nil {
		errs = append(errs, d.db.Close())
	}
	return errors.Join(errs...)
}

// layerProbe collects what the decorators on the server's public hooks
// observe, over every round of a traced run: trace events by kind, the time
// the sink behind the tracer took (the control plane's hub on mux-fleet),
// the time of each call into the experience store, and the mux dial times.
type layerProbe struct {
	events, evals, lowFi, simplex, restarts, rungs, promotions atomic.Int64
	// emitted counts the events handed to the sink; emitNanos is its time.
	emitted, emitNanos atomic.Int64

	mu                             sync.Mutex
	record, match, warmFill, dials []time.Duration
}

func (p *layerProbe) note(into *[]time.Duration, start time.Time) {
	d := time.Since(start)
	p.mu.Lock()
	*into = append(*into, d)
	p.mu.Unlock()
}

// probeStore decorates the server's experience store (the Server.Experience
// hook), timing every call the server makes into it.
type probeStore struct {
	server.Store
	p *layerProbe
}

func (s *probeStore) Record(key string, chars []float64, dir search.Direction, tr search.Trace) bool {
	start := time.Now()
	ok := s.Store.Record(key, chars, dir, tr)
	s.p.note(&s.p.record, start)
	return ok
}

func (s *probeStore) Match(key string, chars []float64) (*history.Experience, bool) {
	start := time.Now()
	exp, ok := s.Store.Match(key, chars)
	s.p.note(&s.p.match, start)
	return exp, ok
}

func (s *probeStore) WarmFill(key string, fn func(cfg search.Config, perf float64)) {
	start := time.Now()
	s.Store.WarmFill(key, fn)
	s.p.note(&s.p.warmFill, start)
}

// probeTracer decorates the server's trace fan-out (the Server.Tracer hook):
// it counts events by kind and times the sink behind it.
type probeTracer struct {
	next search.Tracer
	p    *layerProbe
}

func (t *probeTracer) Emit(e search.Event) {
	p := t.p
	p.events.Add(1)
	switch e.Type {
	case search.EventEval:
		if !e.Cached {
			p.evals.Add(1)
			if !search.FullFidelity(e.Fidelity) {
				p.lowFi.Add(1)
			}
		}
	case search.EventSimplex:
		p.simplex.Add(1)
	case search.EventPhase:
		if e.Op == "restart" || e.Op == "retune" {
			p.restarts.Add(1)
		}
	case search.EventRung:
		switch e.Op {
		case "open":
			p.rungs.Add(1)
		case "promote":
			p.promotions.Add(1)
		}
	}
	if t.next != nil {
		start := time.Now()
		t.next.Emit(e)
		p.emitNanos.Add(int64(time.Since(start)))
		p.emitted.Add(1)
	}
}
