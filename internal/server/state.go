package server

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/search"
)

// Session lifecycle states as reported by SessionSnapshot.Status.
const (
	// StatusRunning is a live connection with a kernel in flight.
	StatusRunning = "running"
	// StatusCompleted is a session whose kernel delivered a final best.
	StatusCompleted = "completed"
	// StatusFailed is a session that ended on a protocol error, an
	// exhausted failure budget or an abnormal disconnect.
	StatusFailed = "failed"
)

// SessionSnapshot is one session's observable state, detached from the
// live machinery: the control plane encodes it to JSON with no server
// locks held. All configuration values are client-facing (decoded for
// restricted specifications) — the coordinates an operator recognizes.
type SessionSnapshot struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// App and Characteristics-derived fields appear once registration
	// succeeded; a snapshot taken before that carries only identity.
	App    string `json:"app,omitempty"`
	Remote string `json:"remote,omitempty"`
	// ConnID identifies the transport connection hosting this session —
	// derived from the connection-table token, so every session of one
	// multiplexed (v4-mux) connection shares it and the dashboard can group
	// them. Un-muxed sessions each carry a unique ConnID.
	ConnID string `json:"conn_id,omitempty"`
	// Mux reports whether the session rides a multiplexed connection.
	Mux       bool      `json:"mux,omitempty"`
	Proto     int       `json:"proto,omitempty"`
	Window    int       `json:"window,omitempty"`
	Dim       int       `json:"dim,omitempty"`
	Direction string    `json:"direction,omitempty"`
	Warm      bool      `json:"warm,omitempty"`
	StartedAt time.Time `json:"started_at"`
	// EndedAt is the zero time while the session is running.
	EndedAt time.Time `json:"ended_at,omitempty"`

	// Live kernel state, fed by the session's trace stream. Converged is
	// the reason of the kernel's latest termination decision
	// (search.EventConverge): "reltol", "stall", "confirmed" (a warm start
	// that confirmed its prior ended at its first failed contraction),
	// "budget" or "init_budget".
	Evals      int     `json:"evals"`
	Cached     int     `json:"cached,omitempty"`
	Estimated  int     `json:"estimated,omitempty"`
	Iter       int     `json:"iter,omitempty"`
	LastOp     string  `json:"last_op,omitempty"`
	Phase      string  `json:"phase,omitempty"`
	Converged  string  `json:"converged,omitempty"`
	HaveBest   bool    `json:"have_best,omitempty"`
	BestPerf   float64 `json:"best_perf,omitempty"`
	BestConfig []int   `json:"best_config,omitempty"`
	// BestAtEval is the Evals count at the session's last incumbent
	// improvement. Evals also counts shared-cache hits and gate estimates,
	// which the client never measures, so Evals − BestAtEval is the
	// kernel's evaluations after its best, not what the client paid.
	BestAtEval int `json:"best_at_eval"`
	// Measured counts the configurations the session's client actually
	// measured (served to it for measurement), and MeasuredAtBest is
	// Measured at the last incumbent improvement: Measured −
	// MeasuredAtBest is what the session spent after finding its best, in
	// the units the client pays. Configurations count when served, so a
	// concurrent batch counts whole at the improvement it commits.
	Measured       int `json:"measured"`
	MeasuredAtBest int `json:"measured_at_best"`

	// Multi-fidelity kernel state (hyperband sessions only; all fields
	// stay zero — and off the wire — on the simplex kernel).
	Rung         int     `json:"rung,omitempty"`
	RungFidelity float64 `json:"rung_fidelity,omitempty"`
	Promotions   int     `json:"promotions,omitempty"`
	LowFiEvals   int     `json:"low_fidelity_evals,omitempty"`

	// Workload-drift state (sessions with drift detection only; all fields
	// stay zero — and off the wire — when detection is off or the workload
	// never moves).
	Drifts        int     `json:"drifts,omitempty"`
	DriftDistance float64 `json:"drift_distance,omitempty"`
	PhaseDeposits int     `json:"phase_deposits,omitempty"`

	// Robustness and pipeline state.
	Outstanding   int `json:"outstanding"`
	Faults        int `json:"faults"`
	FailureBudget int `json:"failure_budget"`
	Retunes       int `json:"retunes,omitempty"`
	// DroppedRetunes counts re-tune requests that were accepted but never
	// run: the session's final convergence decision found no budget left,
	// or the session ended before reaching it.
	DroppedRetunes int    `json:"dropped_retunes,omitempty"`
	Deposited      bool   `json:"deposited,omitempty"`
	Err            string `json:"err,omitempty"`
}

// sessionState is the live mutable twin of a SessionSnapshot. The trace
// stream and the session's exchange update it through a
// per-session mutex or lone atomics — never a server-wide or shard lock —
// so an API snapshot can only ever contend with its own session for the
// few writes of one field copy, and the fetch/report hot path never waits
// on an encoder.
type sessionState struct {
	mu   sync.Mutex
	snap SessionSnapshot
	// retunePending and retuneClosed (under mu) carry operator re-tune
	// requests to the session's convergence decisions; a declining
	// decision closes the session to more.
	retunePending bool
	retuneClosed  bool
	// toWire maps kernel-space configurations (the coordinates trace
	// events carry) to client-facing values; set at registration.
	toWire func(search.Config) []int
	dir    search.Direction

	// outstanding, faults and measured are updated from the exchange's
	// hot path; lone atomics keep those updates wait-free.
	outstanding atomic.Int64
	faults      atomic.Int64
	measured    atomic.Int64
}

// Emit implements search.Tracer: the session's own trace stream is the
// source of truth for its live kernel state.
func (st *sessionState) Emit(e search.Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch e.Type {
	case search.EventEval:
		switch {
		case e.Cached:
			st.snap.Cached++
		case e.Estimated:
			st.snap.Estimated++
			st.snap.Evals++
		default:
			st.snap.Evals++
			if !search.FullFidelity(e.Fidelity) {
				st.snap.LowFiEvals++
			}
		}
		// A reduced-fidelity perf is deliberately noisy triage data and a
		// gate estimate is an unmeasured plane-fit answer; only real
		// full-fidelity truths may claim the session's incumbent best.
		if search.FullFidelity(e.Fidelity) && !e.Estimated &&
			(!st.snap.HaveBest || st.dir.Better(e.Perf, st.snap.BestPerf)) {
			st.snap.HaveBest = true
			st.snap.BestPerf = e.Perf
			st.snap.BestAtEval = st.snap.Evals
			st.snap.MeasuredAtBest = int(st.measured.Load())
			if st.toWire != nil {
				st.snap.BestConfig = st.toWire(e.Config)
			}
		}
	case search.EventSimplex:
		st.snap.Iter = e.Iter
		st.snap.LastOp = e.Op
	case search.EventConverge:
		st.snap.Converged = e.Op
	case search.EventRung:
		st.snap.Rung = e.Iter
		st.snap.RungFidelity = e.Fidelity
		st.snap.Phase = "triage"
		if e.Op == "promote" {
			st.snap.Promotions++
		}
	case search.EventPhase:
		st.snap.Phase = e.Op
		if e.Op == "retune" {
			st.snap.Retunes++
		}
	case search.EventDrift:
		if e.Op == "detect" {
			st.snap.Drifts++
		}
		st.snap.DriftDistance = e.Dist
	}
}

// setDriftDistance publishes the detector's per-observation distance to
// the snapshot without an event per report.
func (st *sessionState) setDriftDistance(d float64) {
	st.mu.Lock()
	st.snap.DriftDistance = d
	st.mu.Unlock()
}

// notePhaseDeposit counts one per-phase experience deposit.
func (st *sessionState) notePhaseDeposit() {
	st.mu.Lock()
	st.snap.PhaseDeposits++
	st.mu.Unlock()
}

// Snapshot copies the state out under the per-session mutex; the caller
// encodes the copy with no locks held.
func (st *sessionState) Snapshot() SessionSnapshot {
	st.mu.Lock()
	snap := st.snap
	snap.BestConfig = append([]int(nil), st.snap.BestConfig...)
	st.mu.Unlock()
	snap.Outstanding = int(st.outstanding.Load())
	snap.Faults = int(st.faults.Load())
	snap.Measured = int(st.measured.Load())
	return snap
}

// registered records the outcome of a successful registration.
func (st *sessionState) registered(app string, dir search.Direction, dim, window int, warm bool, toWire func(search.Config) []int) {
	st.mu.Lock()
	st.snap.App = app
	st.snap.Direction = dir.String()
	st.snap.Dim = dim
	st.snap.Window = window
	st.snap.Warm = warm
	st.dir = dir
	st.toWire = toWire
	st.mu.Unlock()
}

// takeRetune is the session's convergence decision. With budget left
// (more) and a drift trip or a pending operator request, it consumes one —
// the drift first, leaving the request pending for the next decision — and
// returns true. Otherwise it closes the session to requests, counting a
// pending one as dropped, and returns false.
func (st *sessionState) takeRetune(drifted, more bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if more && drifted {
		return true
	}
	if more && st.retunePending {
		st.retunePending = false
		return true
	}
	st.retuneClosed = true
	st.dropRetune()
	return false
}

// requestRetune records a pending re-tune request; it returns false once
// the session is past its final convergence decision or has ended (the
// request could only be dropped, so the API refuses it instead).
func (st *sessionState) requestRetune() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retuneClosed || st.snap.Status != StatusRunning {
		return false
	}
	st.retunePending = true
	return true
}

// dropRetune counts a still-pending re-tune request as dropped; the
// caller holds st.mu.
func (st *sessionState) dropRetune() {
	if st.retunePending {
		st.retunePending = false
		st.snap.DroppedRetunes++
	}
}

// sessionHistory is how many finished sessions the registry retains for the
// control plane's session browser. Running sessions are always visible.
const sessionHistory = 256

// trackState registers a new running session in the state registry.
func (s *Server) trackState(id, remote, connID string) *sessionState {
	st := &sessionState{snap: SessionSnapshot{
		ID: id, Status: StatusRunning, Remote: remote, ConnID: connID,
		StartedAt: time.Now(),
	}}
	s.stateMu.Lock()
	if s.states == nil {
		s.states = map[string]*sessionState{}
	}
	s.states[id] = st
	s.stateMu.Unlock()
	return st
}

// finishState moves a session from the running set into the bounded
// finished ring, stamping its terminal condition.
func (s *Server) finishState(st *sessionState, end SessionEnd) {
	st.mu.Lock()
	if end.Completed {
		st.snap.Status = StatusCompleted
	} else {
		st.snap.Status = StatusFailed
	}
	st.snap.EndedAt = time.Now()
	st.snap.Deposited = end.Deposited
	if end.Err != nil {
		st.snap.Err = end.Err.Error()
	}
	// A session whose kernel unwound (client gone, kernel error) never
	// reached its final decision.
	st.dropRetune()
	st.mu.Unlock()

	s.stateMu.Lock()
	delete(s.states, st.snap.ID)
	if len(s.doneRing) < sessionHistory {
		s.doneRing = append(s.doneRing, st)
	} else {
		s.doneRing[s.doneNext%sessionHistory] = st
	}
	s.doneNext++
	s.stateMu.Unlock()
}

// SessionSnapshots returns every running session plus the retained
// finished ones, newest first. Each snapshot is detached: encoding it
// holds no server state.
func (s *Server) SessionSnapshots() []SessionSnapshot {
	s.stateMu.RLock()
	states := make([]*sessionState, 0, len(s.states)+len(s.doneRing))
	for _, st := range s.states {
		states = append(states, st)
	}
	states = append(states, s.doneRing...)
	s.stateMu.RUnlock()

	out := make([]SessionSnapshot, 0, len(states))
	for _, st := range states {
		out = append(out, st.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := out[i].Status == StatusRunning, out[j].Status == StatusRunning; ri != rj {
			return ri
		}
		if !out[i].StartedAt.Equal(out[j].StartedAt) {
			return out[i].StartedAt.After(out[j].StartedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SessionSnapshot returns one session's state by ID — running or retained.
func (s *Server) SessionSnapshot(id string) (SessionSnapshot, bool) {
	s.stateMu.RLock()
	st := s.states[id]
	if st == nil {
		for _, d := range s.doneRing {
			if d.snap.ID == id {
				st = d
				break
			}
		}
	}
	s.stateMu.RUnlock()
	if st == nil {
		return SessionSnapshot{}, false
	}
	return st.Snapshot(), true
}

// Retune errors.
var (
	// ErrSessionUnknown means no running or retained session has the ID.
	ErrSessionUnknown = errors.New("server: unknown session")
	// ErrSessionDone means the session already ended; there is no kernel
	// left to steer.
	ErrSessionDone = errors.New("server: session already ended")
)

// Retune asks a running session for one more reduced-scale simplex around
// its incumbent best. The session consumes the request at its next
// convergence decision, once its kernel has returned, and is best-effort:
// a session out of evaluation budget ends without re-tuning and counts the
// request in DroppedRetunes. A session already past its final decision —
// delivered its result but not yet torn down — gets ErrSessionDone,
// exactly like a finished one: accepting the request would only drop it
// on the floor. Accepting costs the session what a snapshot does: one
// short hold of its per-session mutex, never the fetch/report path.
func (s *Server) Retune(id string) error {
	s.stateMu.RLock()
	st := s.states[id]
	var done bool
	if st == nil {
		for _, d := range s.doneRing {
			if d.snap.ID == id {
				done = true
				break
			}
		}
	}
	s.stateMu.RUnlock()
	if st == nil {
		if done {
			return ErrSessionDone
		}
		return ErrSessionUnknown
	}
	if !st.requestRetune() {
		return ErrSessionDone
	}
	return nil
}
