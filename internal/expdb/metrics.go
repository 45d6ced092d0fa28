package expdb

import "harmony/internal/obs"

// Metrics is the expdb counter bundle (the "expdb_" Prometheus family).
// Every handle is nil-safe and a nil *Metrics is itself valid, so an
// un-instrumented store pays ~zero.
type Metrics struct {
	// Deposits counts experiences appended to the WAL and applied
	// (expdb_deposits_total).
	Deposits *obs.Counter
	// RecoveredRecords counts WAL records replayed into the in-memory view
	// at Open — after a crash this is the proof the knowledge survived
	// (expdb_recovered_records_total).
	RecoveredRecords *obs.Counter
	// RecoverySeconds is how long the last Open took to load the snapshot,
	// replay the WAL and reopen the log (expdb_recovery_seconds).
	RecoverySeconds *obs.Gauge
	// TruncatedRecords counts torn or corrupt WAL tails dropped at
	// recovery (expdb_truncated_records_total).
	TruncatedRecords *obs.Counter
	// Snapshots counts snapshot+compaction cycles (expdb_snapshots_total).
	Snapshots *obs.Counter
	// SnapshotSeconds observes snapshot+compaction durations
	// (expdb_snapshot_seconds).
	SnapshotSeconds *obs.Histogram
	// IndexSize is the number of experiences indexed across namespaces
	// (expdb_index_size).
	IndexSize *obs.Gauge
	// Namespaces is the number of (app, spec) namespaces resident
	// (expdb_namespaces).
	Namespaces *obs.Gauge
	// WALRecords is the number of log records since the last snapshot
	// (expdb_wal_records).
	WALRecords *obs.Gauge
	// Matches counts nearest-neighbour lookups served
	// (expdb_matches_total).
	Matches *obs.Counter
}

// NewMetrics registers the expdb metric family on reg and returns the
// bundle. A nil registry yields all-nil handles (every update a no-op).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Deposits:         reg.Counter("expdb_deposits_total", "Experiences deposited into the durable store."),
		RecoveredRecords: reg.Counter("expdb_recovered_records_total", "WAL records replayed at recovery."),
		RecoverySeconds:  reg.Gauge("expdb_recovery_seconds", "Duration of the last recovery at open, in seconds."),
		TruncatedRecords: reg.Counter("expdb_truncated_records_total", "Torn or corrupt WAL tails truncated at recovery."),
		Snapshots:        reg.Counter("expdb_snapshots_total", "Snapshot+compaction cycles completed."),
		SnapshotSeconds:  reg.Histogram("expdb_snapshot_seconds", "Snapshot+compaction durations in seconds.", []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		IndexSize:        reg.Gauge("expdb_index_size", "Experiences resident across all namespaces."),
		Namespaces:       reg.Gauge("expdb_namespaces", "Resident (app, spec) experience namespaces."),
		WALRecords:       reg.Gauge("expdb_wal_records", "WAL records appended since the last snapshot."),
		Matches:          reg.Counter("expdb_matches_total", "Nearest-neighbour experience lookups served."),
	}
}

// nopExpMetrics backs the nil fast path.
var nopExpMetrics = &Metrics{}
