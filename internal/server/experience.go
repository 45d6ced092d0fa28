package server

import (
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"slices"

	"harmony/internal/expdb"
	"harmony/internal/history"
	"harmony/internal/rsl"
	"harmony/internal/search"
)

// Store is the server-side prior-run backend (§4.2): completed sessions
// deposit their traces keyed by application + parameter-specification
// signature, and new sessions that declare workload characteristics are
// warm-started from the closest prior experience.
//
// DurableStore is the implementation: over expdb.Open its state survives
// kill -9, over expdb.NewMemory (the server's default) it dies with the
// process. Implementations must be safe for concurrent use; Match must
// return an experience detached from the store's mutable state.
type Store interface {
	// Record deposits a session's trace — complete or partial. It reports
	// whether anything was stored: sessions without characteristics or
	// without a single measurement deposit nothing.
	Record(key string, chars []float64, dir search.Direction, tr search.Trace) bool
	// Match returns the stored experience closest to the observed
	// characteristics, or ok=false when none is usable.
	Match(key string, chars []float64) (exp *history.Experience, ok bool)
	// Flush forces durable backends to stable storage (no-op in memory).
	// The graceful-shutdown drain calls it.
	Flush() error
	// WarmFill streams every stored (configuration, performance) truth
	// under key to fn — the measure-once evaluation cache's hydration path
	// at session registration. Unlike Match, which returns one experience
	// for seeding, WarmFill covers the whole namespace: any configuration a
	// prior run measured is a configuration this session need not pay for
	// again. Implementations stream detached copies; fn runs without store
	// locks held.
	WarmFill(key string, fn func(cfg search.Config, perf float64))
	// Namespaces lists every resident (app, spec) namespace with its sizes
	// — the control plane's experience browser. Sorted by key.
	Namespaces() []expdb.NamespaceInfo
	// BrowseRecords copies out the record range [offset, offset+limit)
	// under key plus the namespace's total record count. Detached copies;
	// encoding never holds store locks.
	BrowseRecords(key string, offset, limit int) (page []history.ConfigPerf, total int)
	// Prune removes a whole namespace, durably for durable backends. It
	// returns the number of experiences removed.
	Prune(key string) (int, error)
}

// specKey derives the experience namespace key from the application name
// and the canonical form of the parameter specification, so only
// compatible sessions share experience. Durable stores persist the keys,
// so their form is pinned (TestSpecKeyPinned). The canonical form is hashed
// from a stack buffer, which leaves the key string as the only allocation
// for specs of up to a few dozen bundles.
func specKey(app string, spec *rsl.Spec) string {
	var buf [1024]byte
	sum := sha256.Sum256(spec.AppendFormat(buf[:0]))
	return string(hex.AppendEncode(append(append(buf[:0], app...), '/'), sum[:8]))
}

// configsFromExperience extracts the experience's dim+1 best distinct
// configurations that still fit the session's space — the shared input of
// both the simplex warm start and the multi-fidelity sampling prior.
// Compaction merges experiences by appending their records, so one
// configuration can appear more than once; a repeat would collapse the
// warm simplex by a dimension.
func configsFromExperience(exp *history.Experience, space *search.Space) []search.Config {
	want := space.Dim() + 1
	var cfgs []search.Config
	for _, rec := range exp.Best(len(exp.Records)) {
		if len(cfgs) == want {
			break
		}
		if len(rec.Config) != space.Dim() || !space.Contains(rec.Config) || slices.ContainsFunc(cfgs, rec.Config.Equal) {
			continue
		}
		cfgs = append(cfgs, rec.Config)
	}
	return cfgs
}

// continuousSeeds maps configurations to the continuous seed points
// search.SeededInit consumes.
func continuousSeeds(space *search.Space, cfgs []search.Config) [][]float64 {
	var seeds [][]float64
	for _, cfg := range cfgs {
		seeds = append(seeds, space.Continuous(cfg))
	}
	return seeds
}

// DurableStore adapts an expdb.Store — durable or in memory — to the
// server's Store interface. A failed deposit is logged and dropped rather
// than failing the session — losing one trace to a disk hiccup beats
// killing a client mid-tune.
type DurableStore struct {
	// DB is the underlying store. The caller owns its lifecycle (harmonyd
	// closes it after Shutdown).
	DB *expdb.Store
	// Logger receives deposit failures; nil discards.
	Logger *slog.Logger
}

// NewDurableStore wraps db for use as Server.Experience.
func NewDurableStore(db *expdb.Store, logger *slog.Logger) *DurableStore {
	return &DurableStore{DB: db, Logger: logger}
}

// Record implements Store.
func (d *DurableStore) Record(key string, chars []float64, dir search.Direction, tr search.Trace) bool {
	stored, err := d.DB.Deposit(key, key, chars, dir, tr)
	if err != nil && d.Logger != nil {
		d.Logger.Error("experience deposit failed; trace dropped", "key", key, "err", err)
	}
	return stored
}

// Match implements Store.
func (d *DurableStore) Match(key string, chars []float64) (*history.Experience, bool) {
	exp, _, ok := d.DB.Match(key, chars)
	return exp, ok
}

// Flush implements Store.
func (d *DurableStore) Flush() error { return d.DB.Flush() }

// WarmFill implements Store.
func (d *DurableStore) WarmFill(key string, fn func(cfg search.Config, perf float64)) {
	d.DB.WalkRecords(key, fn)
}

// Namespaces implements Store.
func (d *DurableStore) Namespaces() []expdb.NamespaceInfo { return d.DB.Namespaces() }

// BrowseRecords implements Store.
func (d *DurableStore) BrowseRecords(key string, offset, limit int) ([]history.ConfigPerf, int) {
	return d.DB.WalkRecordsPage(key, offset, limit)
}

// Prune implements Store.
func (d *DurableStore) Prune(key string) (int, error) { return d.DB.Prune(key) }
