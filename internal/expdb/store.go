package expdb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/history"
	"harmony/internal/obs"
	"harmony/internal/search"
)

// Defaults. The compaction trio matches the values the server historically
// hard-coded in experienceStore.record.
const (
	// DefaultSnapshotEvery is how many WAL records accumulate before a
	// snapshot+compaction folds them into the snapshot file.
	DefaultSnapshotEvery = 256
	// DefaultCompactAbove is the per-namespace experience count above
	// which merge/keep-best compaction runs.
	DefaultCompactAbove = 32
	// DefaultMergeDist is the squared-error radius within which two
	// workloads' characteristics count as the same class and merge.
	DefaultMergeDist = 1e-4
	// DefaultKeepRecords is how many best measurements each experience
	// retains through compaction.
	DefaultKeepRecords = 256
)

// shardCount is the lock-stripe count of the in-memory view. Namespaces
// hash onto stripes and compaction runs under a stripe's lock, so a
// namespace compacting stalls only the namespaces sharing its stripe.
const shardCount = 16

// Filenames inside a data directory. jsonSnapshotName is the snapshot of
// the JSON-era format, which Open refuses rather than misreads.
const (
	snapshotName     = "snapshot.log"
	walName          = "wal.log"
	jsonSnapshotName = "snapshot.json"
)

// Options configure a Store.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SnapshotEvery is the WAL record count that triggers
	// snapshot+compaction (default DefaultSnapshotEvery; < 0 disables
	// automatic snapshots).
	SnapshotEvery int
	// CompactAbove, MergeDist, KeepRecords tune per-namespace compaction
	// (defaults DefaultCompactAbove / DefaultMergeDist /
	// DefaultKeepRecords; CompactAbove < 0 disables).
	CompactAbove int
	MergeDist    float64
	KeepRecords  int
	// Logger receives recovery and snapshot events; nil discards.
	Logger *slog.Logger
	// Metrics receives the expdb_* family; nil disables at ~zero cost.
	Metrics *Metrics
}

func (o *Options) fill() {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.CompactAbove == 0 {
		o.CompactAbove = DefaultCompactAbove
	}
	if o.MergeDist == 0 {
		o.MergeDist = DefaultMergeDist
	}
	if o.KeepRecords == 0 {
		o.KeepRecords = DefaultKeepRecords
	}
	if o.Logger == nil {
		o.Logger = obs.Nop()
	}
	if o.Metrics == nil {
		o.Metrics = nopExpMetrics
	}
}

// namespace is one (app, spec) experience class set plus its lazily built
// nearest-neighbour index. A namespace recovered from the snapshot starts
// cold: it holds its snapshot frames, validated at Open but not decoded,
// and the counts the validating walk found. Its first use decodes it, once,
// under its shard's write lock (materialize); it never turns cold again.
type namespace struct {
	db  history.DB
	cls IndexedClassifier
	// frames are a cold namespace's snapshot frames, verbatim; nil once the
	// namespace is decoded.
	frames []byte
	// exps and recs are a cold namespace's experience and measurement
	// counts.
	exps, recs int
}

// len returns the namespace's experience count, cold or not.
func (ns *namespace) len() int {
	if ns.frames != nil {
		return ns.exps
	}
	return ns.db.Len()
}

// records returns the namespace's measurement count, cold or not.
func (ns *namespace) records() int {
	if ns.frames != nil {
		return ns.recs
	}
	n := 0
	for _, e := range ns.db.Experiences {
		n += len(e.Records)
	}
	return n
}

// materialize decodes a cold namespace's frames into its experiences; on a
// decoded namespace it does nothing. The caller holds the shard's write
// lock. Open validated these frames with the same decoder, so a failure
// here is a bug in this package, not damage.
func (ns *namespace) materialize(key string) {
	if ns.frames == nil {
		return
	}
	d := decoder{build: true, key: key}
	ns.db.Experiences = make([]*history.Experience, 0, ns.exps)
	for off := 0; off < len(ns.frames); {
		payload, next, err := nextFrame(ns.frames, off)
		var rec record
		if err == nil {
			rec, err = d.decode(payload)
		}
		if err != nil {
			panic(fmt.Sprintf("expdb: namespace %q: a snapshot frame validated at Open does not decode: %v", key, err))
		}
		ns.db.Add(rec.Exp)
		off = next
	}
	ns.frames = nil
}

// shard is one lock stripe of the in-memory view.
type shard struct {
	mu sync.RWMutex
	ns map[string]*namespace
}

// Store is the experience database: a sharded, compacted, k-d-indexed map
// of (namespace key → experiences). Opened with Open it is durable — WAL-
// backed and snapshot-compacted; built with NewMemory it is the same view
// with no WAL, snapshot or files. All methods are safe for concurrent use.
type Store struct {
	opts   Options
	shards []*shard
	// wal is nil in memory mode.
	wal *wal
	// snapMu serializes snapshot+compaction against WAL appends so a
	// snapshot's AppliedLSN horizon is exact.
	snapMu sync.Mutex
	// experiences tracks the resident experience count across namespaces
	// (the expdb_index_size gauge's source of truth).
	experiences atomic.Int64
	namespaces  atomic.Int64
	closed      atomic.Bool
}

// Open recovers (or initializes) the store in opts.Dir: load the snapshot
// if present, replay the WAL beyond its horizon, truncate any torn tail,
// and reopen the log for appending. A damaged snapshot fails Open, and so
// does a directory in another format, which Open leaves as it found it.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("expdb: Options.Dir is required")
	}
	start := time.Now()
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("expdb: creating data dir: %w", err)
	}
	old := filepath.Join(opts.Dir, jsonSnapshotName)
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("expdb: %s is a JSON snapshot, a format this store does not read; move the data dir aside", old)
	}
	s := newStore(opts)

	// 1. Snapshot.
	appliedLSN, err := s.loadSnapshot(filepath.Join(opts.Dir, snapshotName))
	if err != nil {
		return nil, err
	}

	// 2. WAL replay with torn-tail truncation.
	walPath := filepath.Join(opts.Dir, walName)
	b, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("expdb: reading WAL: %w", err)
	}
	recs, validLen, derr := decodeFrames(b)
	if intactButUndecodable(derr) {
		return nil, fmt.Errorf("expdb: %s: %w; left untouched, move the data dir aside", walPath, derr)
	}
	maxLSN := appliedLSN
	recovered := 0
	for _, rec := range recs {
		if rec.LSN > maxLSN {
			maxLSN = rec.LSN
		}
		if rec.LSN <= appliedLSN || rec.Exp == nil {
			continue // the snapshot already covers it
		}
		s.apply(rec.Key, rec.Exp)
		recovered++
	}
	if derr != nil {
		// Torn or corrupt tail: truncate to the last intact frame so the
		// next append starts on a clean boundary. Everything before the
		// corruption point has been recovered above.
		opts.Metrics.TruncatedRecords.Inc()
		opts.Logger.Warn("expdb: truncating corrupt WAL tail",
			"wal", walPath, "valid_bytes", validLen, "file_bytes", len(b), "err", derr)
		if terr := os.Truncate(walPath, int64(validLen)); terr != nil {
			return nil, fmt.Errorf("expdb: truncating torn WAL tail: %w", terr)
		}
	}
	opts.Metrics.RecoveredRecords.Add(recovered)
	opts.Metrics.IndexSize.Set(float64(s.experiences.Load()))
	opts.Metrics.Namespaces.Set(float64(s.namespaces.Load()))

	// 3. Reopen the log for appending.
	w, err := openWAL(walPath, opts.Sync, maxLSN+1)
	if err != nil {
		return nil, err
	}
	s.wal = w
	elapsed := time.Since(start)
	opts.Metrics.RecoverySeconds.Set(elapsed.Seconds())
	if recovered > 0 || appliedLSN > 0 {
		cold := s.coldNamespaces()
		opts.Logger.Info("expdb: recovered prior-run store",
			"dir", opts.Dir, "namespaces", s.namespaces.Load(),
			"cold_namespaces", cold, "materialized_namespaces", s.namespaces.Load()-int64(cold),
			"experiences", s.experiences.Load(), "wal_records_replayed", recovered,
			"snapshot_lsn", appliedLSN, "elapsed", elapsed)
	}
	return s, nil
}

// loadSnapshot validates the snapshot at path and leaves each of its
// namespaces cold in the empty view, returning the LSN horizon it covers (0
// when there is none). Unlike a WAL tail, a snapshot is published whole by
// rename, so any bad frame, or fewer or more experience records than its
// horizon declares, is damage, not an interrupted write: it fails, naming
// the file.
func (s *Store) loadSnapshot(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("expdb: reading snapshot: %w", err)
	}
	horizon, err := s.walkSnapshot(b)
	if err != nil {
		return 0, fmt.Errorf("expdb: corrupt snapshot %s: %w", path, err)
	}
	return horizon, nil
}

// walkSnapshot checks every frame of the snapshot image b — header, CRC,
// format and canonical payload, with the decoder validating, not building —
// and the horizon's experience count. It adds one cold namespace per key,
// holding that key's frames. Each key's frames must form one run, keys in
// ascending order, and every experience record must carry LSN 0, as
// Snapshot writes them: a cold namespace's frames are then byte for byte
// what re-encoding its experiences would write.
func (s *Store) walkSnapshot(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, errors.New("no horizon record")
	}
	d := decoder{}
	payload, off, err := nextFrame(b, 0)
	if err != nil {
		return 0, err
	}
	horizon, err := d.decode(payload)
	if err != nil {
		return 0, fmt.Errorf("undecodable record at offset 0: %w", err)
	}
	if payload[0] != formatHorizon {
		return 0, errors.New("no horizon record")
	}
	var ns *namespace
	var key string
	start, count := off, uint64(0)
	for off < len(b) {
		payload, next, err := nextFrame(b, off)
		if err != nil {
			return 0, err
		}
		rec, err := d.decode(payload)
		switch {
		case err != nil:
			return 0, fmt.Errorf("undecodable record at offset %d: %w", off, err)
		case payload[0] == formatHorizon:
			return 0, fmt.Errorf("record %d is a second horizon", count+1)
		case rec.LSN != 0:
			return 0, fmt.Errorf("record %d carries LSN %d, not 0", count+1, rec.LSN)
		}
		if ns == nil || rec.Key != key {
			if ns != nil && rec.Key < key {
				return 0, fmt.Errorf("record %d: key %q out of order", count+1, rec.Key)
			}
			key, start = rec.Key, off
			sh := s.shardFor(key)
			sh.mu.Lock()
			ns = s.addNamespace(sh, key)
			sh.mu.Unlock()
		}
		ns.frames = b[start:next:next]
		ns.exps++
		ns.recs += int(rec.Count)
		count++
		off = next
	}
	if count != horizon.Count {
		return 0, fmt.Errorf("holds %d experience records, its horizon declares %d", count, horizon.Count)
	}
	s.experiences.Add(int64(count))
	return horizon.LSN, nil
}

// NewMemory returns a Store that keeps everything in memory: the same
// sharded, compacted, k-d-indexed view Open recovers, with no WAL, snapshot
// or files, so its contents die with the process. opts.Dir, Sync and
// SnapshotEvery are ignored; Flush, Snapshot and Close do no I/O.
func NewMemory(opts Options) *Store {
	opts.fill()
	return newStore(opts)
}

// newStore builds the empty in-memory view; opts are already filled.
func newStore(opts Options) *Store {
	s := &Store{opts: opts, shards: make([]*shard, shardCount)}
	for i := range s.shards {
		s.shards[i] = &shard{ns: map[string]*namespace{}}
	}
	return s
}

// addNamespace creates an empty namespace under key. The caller holds
// sh's write lock and has found no namespace there.
func (s *Store) addNamespace(sh *shard, key string) *namespace {
	ns := &namespace{}
	sh.ns[key] = ns
	s.namespaces.Add(1)
	s.opts.Metrics.Namespaces.Inc()
	return ns
}

// readNamespace returns key's namespace, decoded first if it was cold, with
// its shard's read lock held; the caller releases it. The namespace is nil
// when key has none.
func (s *Store) readNamespace(key string) (*shard, *namespace) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	ns := sh.ns[key]
	if ns == nil || ns.frames == nil {
		return sh, ns
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	if ns = sh.ns[key]; ns != nil {
		ns.materialize(key)
	}
	sh.mu.Unlock()
	sh.mu.RLock()
	// Pruned or re-created meanwhile, it is still not cold: only the
	// snapshot walk at Open makes cold namespaces.
	return sh, sh.ns[key]
}

// coldNamespaces counts the namespaces not yet decoded.
func (s *Store) coldNamespaces() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, ns := range sh.ns {
			if ns.frames != nil {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

func (s *Store) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// apply adds an experience to the in-memory view, compacting the
// namespace when it outgrows CompactAbove.
func (s *Store) apply(key string, exp *history.Experience) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	ns := sh.ns[key]
	if ns == nil {
		ns = s.addNamespace(sh, key)
	}
	ns.materialize(key)
	before := ns.db.Len()
	ns.db.Add(exp)
	if s.opts.CompactAbove >= 0 && ns.db.Len() > s.opts.CompactAbove {
		ns.db.Compact(s.opts.MergeDist, s.opts.KeepRecords)
	}
	s.experiences.Add(int64(ns.db.Len() - before))
	ns.cls.Invalidate()
	sh.mu.Unlock()
	s.opts.Metrics.IndexSize.Set(float64(s.experiences.Load()))
}

// Deposit records one session's tuning experience under key, durably
// unless the store is in memory. It reports whether anything was stored —
// sessions without characteristics or without a single measurement deposit
// nothing (matching the server's historical contract) — and any WAL error.
// The experience is on the log (fsynced under SyncAlways) before the
// in-memory view ever sees it.
func (s *Store) Deposit(key, label string, chars []float64, dir search.Direction, tr search.Trace) (bool, error) {
	if len(chars) == 0 || len(tr) == 0 {
		return false, nil
	}
	if s.closed.Load() {
		return false, fmt.Errorf("expdb: store closed")
	}
	exp := history.FromTrace(label, chars, dir, tr)

	// The apply happens under snapMu too: a snapshot's AppliedLSN horizon
	// must only cover records already visible in the in-memory view, or a
	// concurrent snapshot+WAL-reset could drop an appended-but-unapplied
	// record.
	s.snapMu.Lock()
	var err error
	records := 0
	if s.wal != nil {
		_, err = s.wal.append(key, exp)
		records = s.wal.records
	}
	if err == nil {
		s.apply(key, exp)
	}
	s.snapMu.Unlock()
	if err != nil {
		return false, err
	}
	s.opts.Metrics.Deposits.Inc()
	if s.wal == nil {
		return true, nil
	}
	s.opts.Metrics.WALRecords.Set(float64(records))

	if s.opts.SnapshotEvery >= 0 && records >= s.opts.SnapshotEvery {
		if serr := s.Snapshot(); serr != nil {
			// A failed snapshot is not data loss — the WAL still has
			// everything — but it is worth shouting about.
			s.opts.Logger.Error("expdb: snapshot failed", "err", serr)
		}
	}
	return true, nil
}

// Match returns a copy of the experience whose characteristics are closest
// (squared error, k-d tree) to chars within key's namespace, with the
// match distance. ok is false when the namespace is empty or absent. The
// returned experience is detached: callers may hold it without locks.
func (s *Store) Match(key string, chars []float64) (*history.Experience, float64, bool) {
	if len(chars) == 0 {
		return nil, 0, false
	}
	sh, ns := s.readNamespace(key)
	defer sh.mu.RUnlock()
	if ns == nil {
		return nil, 0, false
	}
	an := &history.Analyzer{DB: &ns.db, Classifier: &ns.cls}
	exp, dist, ok := an.Match(chars)
	if !ok {
		return nil, dist, false
	}
	s.opts.Metrics.Matches.Inc()
	return exp.Clone(), dist, true
}

// Snapshot folds the current state into the snapshot file (atomic
// write+fsync+rename+dir-sync) and truncates the WAL. Crash-safe at every
// point: until the rename lands the old snapshot+WAL pair is authoritative;
// after it, replayed WAL records at or below the new AppliedLSN are
// skipped. A memory store has nothing to fold: Snapshot returns nil.
func (s *Store) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	start := time.Now()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	s.wal.mu.Lock()
	horizon := s.wal.nextLSN - 1
	s.wal.mu.Unlock()

	// Each namespace is encoded under its shard's read lock, straight into
	// the file image: no experience is cloned. Deposits wait on snapMu, so
	// the namespaces listed here are all there is to fold. The horizon
	// record goes first in the file but is encoded last, once the count of
	// experience records it declares is known.
	keys := s.keys()
	var body []byte
	count := 0
	for _, key := range keys {
		var n int
		var err error
		if body, n, err = s.appendNamespace(body, key); err != nil {
			return err
		}
		count += n
	}
	head, err := appendRecordFrame(nil, record{LSN: horizon, Count: uint64(count)})
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.opts.Dir, snapshotName), head, body); err != nil {
		return err
	}
	s.wal.mu.Lock()
	err = s.wal.resetLocked()
	s.wal.mu.Unlock()
	if err != nil {
		return fmt.Errorf("expdb: resetting WAL after snapshot: %w", err)
	}
	s.opts.Metrics.Snapshots.Inc()
	s.opts.Metrics.WALRecords.Set(0)
	s.opts.Metrics.SnapshotSeconds.Observe(time.Since(start).Seconds())
	s.opts.Logger.Debug("expdb: snapshot complete",
		"applied_lsn", horizon, "namespaces", len(keys), "experiences", count,
		"bytes", len(head)+len(body),
		"elapsed", time.Since(start))
	return nil
}

// keys lists the resident namespace keys in sorted order.
func (s *Store) keys() []string {
	var keys []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for key := range sh.ns {
			keys = append(keys, key)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// appendNamespace appends one snapshot record per experience under key,
// holding the key's shard read lock while it encodes, and reports how many
// it appended. A cold namespace appends its frames as it holds them. A
// namespace pruned since it was listed appends nothing.
func (s *Store) appendNamespace(buf []byte, key string) ([]byte, int, error) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ns := sh.ns[key]
	if ns == nil {
		return buf, 0, nil
	}
	if ns.frames != nil {
		return append(buf, ns.frames...), ns.exps, nil
	}
	var err error
	for _, e := range ns.db.Experiences {
		if buf, err = appendRecordFrame(buf, record{Key: key, Exp: e}); err != nil {
			return nil, 0, err
		}
	}
	return buf, len(ns.db.Experiences), nil
}

// writeFileAtomic publishes the concatenated parts at path via temp-file +
// fsync + rename + parent-directory sync, so a crash never exposes a
// partial file.
func writeFileAtomic(path string, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	for _, b := range parts {
		if _, err := f.Write(b); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Errors
// from filesystems that refuse directory fsync are ignored — the rename
// itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync() //nolint:errcheck // best effort: some filesystems reject dir fsync
	return nil
}

// Flush forces every acknowledged deposit to stable storage (meaningful
// under SyncNone; cheap under SyncAlways). The server's graceful-shutdown
// drain calls it.
func (s *Store) Flush() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.flush()
}

// Close snapshots (folding the WAL so the next Open recovers fast) and
// closes the log. Crash-safety never depends on Close being called. A
// memory store only stops accepting deposits.
func (s *Store) Close() error {
	if s.closed.Swap(true) || s.wal == nil {
		return nil
	}
	err := s.Snapshot()
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// WalkRecords streams every stored (configuration, performance)
// measurement under key to fn, experience by experience in storage order.
// The records are copied out under the shard read lock before fn runs, so
// fn may take as long as it likes (and may even call back into the store).
// The evaluation cache's warm fill uses it to hydrate a fresh session with
// every truth prior runs already paid for.
func (s *Store) WalkRecords(key string, fn func(cfg search.Config, perf float64)) {
	sh, ns := s.readNamespace(key)
	var recs []history.ConfigPerf
	if ns != nil {
		for _, e := range ns.db.Experiences {
			recs = append(recs, e.Records...)
		}
	}
	sh.mu.RUnlock()
	for _, r := range recs {
		fn(r.Config, r.Perf)
	}
}

// WalkRecordsPage copies out the half-open record range [offset,
// offset+limit) under key, in the same storage order WalkRecords streams,
// plus the namespace's total record count. It is the control plane's
// browse path: the copy happens under the shard read lock, encoding
// happens with no store lock held, and a limit of 0 returns only the
// total. Offsets past the end yield an empty page.
func (s *Store) WalkRecordsPage(key string, offset, limit int) (page []history.ConfigPerf, total int) {
	if offset < 0 {
		offset = 0
	}
	sh, ns := s.readNamespace(key)
	defer sh.mu.RUnlock()
	if ns == nil {
		return nil, 0
	}
	for _, e := range ns.db.Experiences {
		for _, r := range e.Records {
			if total >= offset && len(page) < limit {
				page = append(page, history.ConfigPerf{Config: r.Config.Clone(), Perf: r.Perf, Seq: r.Seq})
			}
			total++
		}
	}
	return page, total
}

// NamespaceInfo summarizes one (app, spec) namespace for the control
// plane's experience browser.
type NamespaceInfo struct {
	// Key is the namespace key ("app/spec-signature" on the server).
	Key string `json:"key"`
	// Experiences is the resident experience (workload-class) count.
	Experiences int `json:"experiences"`
	// Records is the total stored (configuration, performance) count.
	Records int `json:"records"`
}

// Namespaces lists every resident namespace with its sizes, sorted by key
// so pages and prune tokens are stable across calls.
func (s *Store) Namespaces() []NamespaceInfo {
	var out []NamespaceInfo
	for _, sh := range s.shards {
		sh.mu.RLock()
		for key, ns := range sh.ns {
			out = append(out, NamespaceInfo{Key: key, Experiences: ns.len(), Records: ns.records()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Prune removes a whole namespace — every experience deposited under key —
// and folds the deletion into a snapshot so it survives restarts (without
// the fold, WAL replay would resurrect the pruned records). It returns the
// number of experiences removed; pruning an absent namespace removes zero
// and skips the snapshot.
func (s *Store) Prune(key string) (int, error) {
	if s.closed.Load() {
		return 0, fmt.Errorf("expdb: store closed")
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	ns := sh.ns[key]
	removed := 0
	if ns != nil {
		removed = ns.len()
		delete(sh.ns, key)
		s.namespaces.Add(-1)
		s.experiences.Add(int64(-removed))
	}
	sh.mu.Unlock()
	if ns == nil {
		return 0, nil
	}
	s.opts.Metrics.IndexSize.Set(float64(s.experiences.Load()))
	s.opts.Metrics.Namespaces.Set(float64(s.namespaces.Load()))
	if err := s.Snapshot(); err != nil {
		return removed, fmt.Errorf("expdb: pruned %q in memory but snapshot failed (a restart may resurrect it): %w", key, err)
	}
	return removed, nil
}

// FlushLag reports how long acknowledged deposits have been exposed to a
// hard crash (always zero under SyncAlways) — the /healthz WAL check.
func (s *Store) FlushLag() time.Duration {
	if s.wal == nil {
		return 0
	}
	return s.wal.flushLag()
}

// Len returns the number of resident experiences across all namespaces.
func (s *Store) Len() int { return int(s.experiences.Load()) }

// NamespaceLen returns the number of experiences under one key.
func (s *Store) NamespaceLen(key string) int {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ns := sh.ns[key]; ns != nil {
		return ns.len()
	}
	return 0
}
