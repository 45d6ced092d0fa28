// Package expdb is the durable experience database behind the tuning
// server's prior-run path (§4.2–§4.3).
//
// The paper's central claim is that automated tuning compounds when
// knowledge from prior runs persists; an in-memory map that evaporates on
// every restart of the daemon cannot deliver that. expdb stores deposited
// tuning experiences crash-safely and serves nearest-neighbour matches
// without linear scans:
//
//   - an append-only write-ahead log with length+CRC32 framing, a
//     configurable fsync policy, and torn-tail truncation on recovery —
//     a deposit acknowledged is a deposit that survives kill -9;
//   - periodic snapshot+compaction that folds the WAL into an atomically
//     rewritten snapshot using the same merge/keep-best rules as
//     history.DB.Compact, bounding both disk and memory;
//   - per-(app, spec) namespaces behind sharded RW locks, so heavy
//     concurrent deposit/match traffic does not serialize;
//   - a k-d tree index over workload characteristic vectors (behind the
//     history.Classifier interface) replacing O(n·d) scans.
//
// Layout of a data directory:
//
//	<dir>/snapshot.log   compacted state: a horizon record (the LSN it
//	                     covers and how many experience records follow),
//	                     then one record per experience, keys in sorted
//	                     order (published by atomic rename)
//	<dir>/wal.log        one record per deposit since that snapshot
//
// Both files are sequences of the same frames — length, CRC32, binary
// record payload, newline — written and read by one codec (codec.go).
// Recovery validates every frame of the snapshot, which must be intact and
// whole, but decodes none: each namespace stays cold, holding its frames,
// until its first use decodes it, and a cold namespace is copied verbatim
// into the next snapshot. Recovery then replays WAL records with LSN
// beyond the snapshot's horizon and truncates the log at the first torn
// frame or CRC mismatch: everything before the corruption point is
// recovered. A directory written in another format (a snapshot.json, or a
// WAL holding a CRC-intact record this codec cannot decode) is refused and
// left untouched. Records are inspected through the daemon's control plane
// (GET /api/v1/expdb/records), not by reading the files.
package expdb

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"harmony/internal/history"
)

// SyncPolicy controls when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged deposit
	// survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS page cache: far faster under
	// heavy deposit traffic, at the cost of losing the last few seconds of
	// deposits on a hard crash. Snapshots still fsync regardless.
	SyncNone
)

// ParseSyncPolicy maps the flag spelling ("always" | "none") to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("expdb: unknown fsync policy %q (want always or none)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "always"
}

// wal is the open write-ahead log. Appends are serialized by mu; the
// store's snapshot path holds the same lock to get a consistent horizon.
type wal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	policy  SyncPolicy
	nextLSN uint64
	// records counts appends since open/reset — the snapshot cadence input.
	records int
	// dirtySince is when the oldest unfsynced append happened (zero when
	// every acknowledged record is on stable storage). Only SyncNone ever
	// sets it; /healthz surfaces the lag so an operator notices a store
	// that would lose deposits on a hard crash.
	dirtySince time.Time
	// buf is the frame encoding buffer, reused across appends.
	buf []byte
}

// openWAL opens (creating if needed) the log for appending. nextLSN is one
// past the highest LSN recovery observed.
func openWAL(path string, policy SyncPolicy, nextLSN uint64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if nextLSN == 0 {
		nextLSN = 1
	}
	return &wal{f: f, path: path, policy: policy, nextLSN: nextLSN}, nil
}

// append frames and writes one record, assigning its LSN. With SyncAlways
// the record is on stable storage when append returns.
func (w *wal) append(key string, exp *history.Experience) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	b, err := appendRecordFrame(w.buf[:0], record{LSN: lsn, Key: key, Exp: exp})
	if err != nil {
		return 0, err
	}
	w.buf = b
	if _, err := w.f.Write(b); err != nil {
		return 0, fmt.Errorf("expdb: WAL append: %w", err)
	}
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("expdb: WAL fsync: %w", err)
		}
	} else if w.dirtySince.IsZero() {
		w.dirtySince = time.Now()
	}
	w.nextLSN++
	w.records++
	return lsn, nil
}

// flush forces buffered appends to stable storage (meaningful under
// SyncNone; a no-op cost under SyncAlways).
func (w *wal) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirtySince = time.Time{}
	return nil
}

// flushLag reports how long the oldest acknowledged-but-unfsynced append
// has been exposed to a hard crash (zero when the log is clean — always
// the case under SyncAlways).
func (w *wal) flushLag() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dirtySince.IsZero() {
		return 0
	}
	return time.Since(w.dirtySince)
}

// reset truncates the log after a snapshot has made its contents
// redundant. Callers must hold w.mu (the store snapshots under it).
func (w *wal) resetLocked() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.records = 0
	w.dirtySince = time.Time{}
	return nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.dirtySince = time.Time{}
	return err
}
