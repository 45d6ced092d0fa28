package server

import (
	"harmony/internal/obs"
)

// Metrics is the server's counter bundle, backed by an obs.Registry. Every
// field is a nil-safe obs handle and a nil *Metrics is itself valid, so an
// un-instrumented Server pays ~zero (one branch per event).
//
// Exposition names follow Prometheus conventions under the "harmony_"
// namespace; NewMetrics registers them all.
type Metrics struct {
	// SessionsStarted counts opened sessions: one per accepted connection
	// and one per further session attached to a mux connection
	// (harmony_sessions_started_total).
	SessionsStarted *obs.Counter
	// SessionsActive is the number of live sessions
	// (harmony_sessions_active).
	SessionsActive *obs.Gauge
	// SessionsCompleted counts sessions that delivered a final best
	// (harmony_sessions_completed_total).
	SessionsCompleted *obs.Counter
	// SessionFailures counts sessions that ended with a terminal error —
	// protocol violations, exhausted failure budgets, transport faults
	// (harmony_session_failures_total).
	SessionFailures *obs.Counter
	// SessionsSevered counts connections cut by the shutdown hard cutoff
	// (harmony_sessions_severed_total).
	SessionsSevered *obs.Counter
	// Faults counts tolerated per-session faults, i.e. failure-budget
	// spend (harmony_session_faults_total).
	Faults *obs.Counter
	// ProtocolErrors counts protocol-level rejections sent to clients
	// (harmony_protocol_errors_total).
	ProtocolErrors *obs.Counter
	// Deposits counts traces deposited into the experience store,
	// complete or partial (harmony_deposits_total).
	Deposits *obs.Counter
	// PartialDeposits counts the subset of deposits made on abnormal
	// disconnect (harmony_partial_deposits_total).
	PartialDeposits *obs.Counter
	// WarmStarts counts sessions seeded from prior experience
	// (harmony_warm_starts_total).
	WarmStarts *obs.Counter
	// ConfigsServed counts configurations handed to clients
	// (harmony_configs_served_total).
	ConfigsServed *obs.Counter
	// ReportsReceived counts performance reports accepted from clients
	// (harmony_reports_received_total).
	ReportsReceived *obs.Counter
	// SessionOutstanding is the number of configurations currently in
	// flight across all sessions, lockstep (at most one each) and
	// pipelined alike (harmony_session_outstanding).
	SessionOutstanding *obs.Gauge
	// BatchSize observes the pipeline depth at each config dispatch — how
	// many configurations were outstanding the moment one was handed out
	// (harmony_session_batch_size). Lockstep sessions always observe 1, so
	// the count minus the le="1" bucket is the pipelined dispatches that
	// ran deeper; a distribution stuck at 1 means clients declare windows
	// they never fill.
	BatchSize *obs.Histogram
	// AcceptRetries counts transient Accept failures the listener loop
	// survived (harmony_accept_retries_total) — EMFILE/ENFILE pressure,
	// aborted handshakes. A growing value is a capacity warning; before
	// the retry loop these errors silently killed the accept loop.
	AcceptRetries *obs.Counter
	// OversizedLines counts wire lines over the 1 MiB frame cap
	// (harmony_oversized_lines_total). Each one also costs a
	// failure-budget charge and a protocol error reply.
	OversizedLines *obs.Counter
	// DrainSeconds observes Shutdown drain durations
	// (harmony_shutdown_drain_seconds).
	DrainSeconds *obs.Histogram

	// MuxConnections is the number of live multiplexed (v4-mux)
	// connections (harmony_mux_connections).
	MuxConnections *obs.Gauge
	// MuxSessionsPerConn observes, at each mux connection's end, how many
	// sessions it hosted over its lifetime
	// (harmony_mux_sessions_per_conn). An average stuck at 1 means clients
	// negotiate mux and then never fan in.
	MuxSessionsPerConn *obs.Histogram
	// MuxCorkedFlushFrames observes how many frames each corked-writer
	// flush coalesced into one socket write
	// (harmony_mux_corked_flush_frames) — the batch size that collapses
	// the per-exchange syscall floor at high session counts.
	MuxCorkedFlushFrames *obs.Histogram
	// MuxCreditStalls counts deliveries that found a session's inbox full
	// — its flow-control credit exhausted (harmony_mux_credit_stalls_total).
	// Each stall evicts the offending session; the connection and its peer
	// sessions continue.
	MuxCreditStalls *obs.Counter
	// MuxEvictions counts sessions evicted from a mux connection for
	// exhausting their flow-control credit (harmony_mux_evictions_total).
	MuxEvictions *obs.Counter
	// MuxUnknownTokens counts frames naming a session token that was never
	// attached (harmony_mux_unknown_tokens_total). Each is answered with a
	// framed connection-scope error and charged to the connection's
	// failure budget — not a connection kill.
	MuxUnknownTokens *obs.Counter
}

// NewMetrics registers the server metric family on reg and returns the
// bundle. A nil registry yields a bundle of nil handles (all updates
// no-ops), so callers can wire it unconditionally.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		SessionsStarted:    reg.Counter("harmony_sessions_started_total", "Sessions opened: one per accepted connection plus one per further mux attach."),
		SessionsActive:     reg.Gauge("harmony_sessions_active", "Currently live tuning sessions."),
		SessionsCompleted:  reg.Counter("harmony_sessions_completed_total", "Sessions that delivered a final best configuration."),
		SessionFailures:    reg.Counter("harmony_session_failures_total", "Sessions that ended with a terminal error."),
		SessionsSevered:    reg.Counter("harmony_sessions_severed_total", "Connections severed by the shutdown hard cutoff."),
		Faults:             reg.Counter("harmony_session_faults_total", "Tolerated per-session faults (failure-budget spend)."),
		ProtocolErrors:     reg.Counter("harmony_protocol_errors_total", "Protocol-level errors sent to clients."),
		Deposits:           reg.Counter("harmony_deposits_total", "Tuning traces deposited into the experience store."),
		PartialDeposits:    reg.Counter("harmony_partial_deposits_total", "Partial traces deposited on abnormal disconnect."),
		WarmStarts:         reg.Counter("harmony_warm_starts_total", "Sessions warm-started from prior experience."),
		ConfigsServed:      reg.Counter("harmony_configs_served_total", "Configurations served to clients for measurement."),
		ReportsReceived:    reg.Counter("harmony_reports_received_total", "Performance reports accepted from clients."),
		SessionOutstanding: reg.Gauge("harmony_session_outstanding", "Configurations currently in flight across all sessions."),
		BatchSize:          reg.Histogram("harmony_session_batch_size", "Pipeline depth at each config dispatch (lockstep sessions observe 1).", []float64{1, 2, 4, 8, 16, 32}),
		AcceptRetries:      reg.Counter("harmony_accept_retries_total", "Transient listener Accept failures survived by the retry loop."),
		OversizedLines:     reg.Counter("harmony_oversized_lines_total", "Wire lines rejected for exceeding the 1 MiB frame cap."),
		DrainSeconds:       reg.Histogram("harmony_shutdown_drain_seconds", "Shutdown drain durations in seconds.", []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}),

		MuxConnections:       reg.Gauge("harmony_mux_connections", "Live multiplexed (v4-mux) connections."),
		MuxSessionsPerConn:   reg.Histogram("harmony_mux_sessions_per_conn", "Sessions hosted per mux connection over its lifetime.", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		MuxCorkedFlushFrames: reg.Histogram("harmony_mux_corked_flush_frames", "Frames coalesced into one corked-writer flush.", []float64{1, 2, 4, 8, 16, 32, 64}),
		MuxCreditStalls:      reg.Counter("harmony_mux_credit_stalls_total", "Deliveries that found a mux session's flow-control credit exhausted."),
		MuxEvictions:         reg.Counter("harmony_mux_evictions_total", "Sessions evicted from a mux connection for exhausting their credit."),
		MuxUnknownTokens:     reg.Counter("harmony_mux_unknown_tokens_total", "Mux frames naming a session token that was never attached."),
	}
}

// nopMetrics backs the nil fast path: all handles nil, all updates no-ops.
var nopMetrics = &Metrics{}

// m returns the server's metrics bundle, never nil.
func (s *Server) m() *Metrics {
	if s.Metrics != nil {
		return s.Metrics
	}
	return nopMetrics
}
