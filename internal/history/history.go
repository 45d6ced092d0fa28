// Package history implements the paper's data characteristics database and
// data analyzer (§4.2).
//
// During tuning, Active Harmony records every configuration it tried
// together with the observed performance and the characteristics of the
// workload being served (for the web cluster: the frequency distribution of
// TPC-W interactions). When the system later faces a new workload, the data
// analyzer observes a small sample of requests, extracts its
// characteristics, classifies them against the stored experiences by
// least-squares nearest neighbour, and hands the matching experience to the
// tuning server as a training stage.
//
// Experiences persist as JSON so tuning knowledge survives restarts.
package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"harmony/internal/estimate"
	"harmony/internal/search"
	"harmony/internal/stats"
)

// ConfigPerf is one recorded (configuration, performance) measurement.
type ConfigPerf struct {
	Config search.Config `json:"config"`
	Perf   float64       `json:"perf"`
	Seq    int           `json:"seq"`
}

// Experience is the tuning record of one workload class: the workload's
// characteristic vector plus every measurement taken while serving it.
type Experience struct {
	// Label is a human-readable workload name ("shopping", "ordering", …).
	Label string `json:"label"`
	// Characteristics is the workload's feature vector (e.g. interaction
	// frequency distribution).
	Characteristics []float64 `json:"characteristics"`
	// Records are the measurements, in tuning order.
	Records []ConfigPerf `json:"records"`
	// Direction states whether Perf is maximized or minimized.
	Direction search.Direction `json:"direction"`
}

// Best returns the n best records by performance (all when n exceeds the
// record count), most recent first among ties.
func (e *Experience) Best(n int) []ConfigPerf {
	recs := append([]ConfigPerf(nil), e.Records...)
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Perf != recs[j].Perf {
			return e.Direction.Better(recs[i].Perf, recs[j].Perf)
		}
		return recs[i].Seq > recs[j].Seq
	})
	if n > len(recs) {
		n = len(recs)
	}
	if n < 0 {
		n = 0
	}
	return recs[:n]
}

// Seeds is the training stage (§4.2): it returns up to k distinct
// configurations of the experience as seeds for a search of space, best
// first. Records rank in Best order; project maps each record's
// configuration into space, and ok=false skips the record. A configuration
// that repeats after projection keeps its best rank. When fewer than k
// distinct records project, the distributed design's points are ranked by
// triangulation estimates over the projected records (§4.3), and the top k
// of records and estimates together are returned. Seeds returns nil when
// no record projects.
func (e *Experience) Seeds(space *search.Space, project func(search.Config) (search.Config, bool), k int) []search.Config {
	if k <= 0 {
		return nil
	}
	// Compact the distinct projections to the front of the ranked copy;
	// a repeat is skipped, so each keeps its best rank.
	cands := e.Best(len(e.Records))
	n := 0
	for _, rec := range cands {
		cfg, ok := project(rec.Config)
		if !ok || holds(cands[:n], cfg) {
			continue
		}
		cands[n] = ConfigPerf{Config: cfg, Perf: rec.Perf, Seq: n}
		if n++; n == k {
			break
		}
	}
	if n == 0 {
		return nil
	}
	cands = cands[:n]
	if n < k {
		// Too sparse: estimate the distributed design's points from the
		// records and rank records and estimates together. Records come
		// first, so the stable sort keeps a record ahead of an estimate it
		// ties.
		recs := make([]estimate.Record, n)
		for i, c := range cands {
			recs[i] = estimate.Record{Config: c.Config, Perf: c.Perf, Seq: c.Seq}
		}
		est := estimate.New(space)
		for _, pt := range (search.DistributedInit{}).Initial(space) {
			cfg := space.Snap(pt)
			if holds(cands, cfg) {
				continue
			}
			if perf, err := est.Estimate(recs, cfg); err == nil {
				cands = append(cands, ConfigPerf{Config: cfg, Perf: perf})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return e.Direction.Better(cands[i].Perf, cands[j].Perf) })
	}
	seeds := make([]search.Config, min(k, len(cands)))
	for i := range seeds {
		seeds[i] = cands[i].Config
	}
	return seeds
}

// holds reports whether cfg is among the records' configurations.
func holds(recs []ConfigPerf, cfg search.Config) bool {
	for _, r := range recs {
		if r.Config.Equal(cfg) {
			return true
		}
	}
	return false
}

// AddRecord appends a measurement, assigning the next sequence number.
func (e *Experience) AddRecord(cfg search.Config, perf float64) {
	seq := 0
	if len(e.Records) > 0 {
		seq = e.Records[len(e.Records)-1].Seq + 1
	}
	e.Records = append(e.Records, ConfigPerf{Config: cfg.Clone(), Perf: perf, Seq: seq})
}

// Clone returns a deep copy detached from the receiver: mutating either
// side (records, characteristics) never affects the other. Stores hand
// out clones so callers can hold matches without locks.
func (e *Experience) Clone() *Experience {
	cp := *e
	cp.Characteristics = append([]float64(nil), e.Characteristics...)
	cp.Records = append([]ConfigPerf(nil), e.Records...)
	return &cp
}

// FromTrace builds an experience from a tuning trace.
func FromTrace(label string, chars []float64, dir search.Direction, tr search.Trace) *Experience {
	e := &Experience{
		Label:           label,
		Characteristics: append([]float64(nil), chars...),
		Direction:       dir,
	}
	for _, ev := range tr {
		e.Records = append(e.Records, ConfigPerf{Config: ev.Config.Clone(), Perf: ev.Perf, Seq: ev.Index})
	}
	return e
}

// Classifier maps an observed characteristic vector to the index of the
// best-matching stored class. Implementations return the index and the
// match distance.
type Classifier interface {
	Classify(observed []float64, classes [][]float64) (int, float64, error)
}

// LeastSquares is the paper's classification mechanism: it returns the class
// j minimizing Σ_k (c_jk − c_ok)², i.e. the squared-error nearest neighbour.
type LeastSquares struct{}

// Classify implements Classifier.
func (LeastSquares) Classify(observed []float64, classes [][]float64) (int, float64, error) {
	if len(classes) == 0 {
		return 0, 0, errors.New("history: no classes to classify against")
	}
	best, bestD := -1, 0.0
	for i, c := range classes {
		if len(c) != len(observed) {
			return 0, 0, fmt.Errorf("history: class %d has %d features, observed %d", i, len(c), len(observed))
		}
		d := stats.SquaredError(observed, c)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD, nil
}

// DB is the data characteristics database.
type DB struct {
	Experiences []*Experience `json:"experiences"`
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{} }

// Add stores an experience.
func (db *DB) Add(e *Experience) { db.Experiences = append(db.Experiences, e) }

// Len returns the number of stored experiences.
func (db *DB) Len() int { return len(db.Experiences) }

// Compact bounds the database: experiences whose characteristics lie within
// mergeDist (squared error) of an earlier experience are merged into it, and
// every experience keeps only its keepRecords best measurements. Use it to
// stop a long-lived tuning server's database from growing without bound.
func (db *DB) Compact(mergeDist float64, keepRecords int) {
	if keepRecords < 1 {
		keepRecords = 1
	}
	var kept []*Experience
	for _, e := range db.Experiences {
		merged := false
		for _, k := range kept {
			if len(k.Characteristics) != len(e.Characteristics) {
				continue
			}
			if stats.SquaredError(k.Characteristics, e.Characteristics) <= mergeDist {
				// Absorb: renumber the newcomer's records after the host's.
				for _, rec := range e.Records {
					k.AddRecord(rec.Config, rec.Perf)
				}
				merged = true
				break
			}
		}
		if !merged {
			cp := *e
			cp.Records = append([]ConfigPerf(nil), e.Records...)
			kept = append(kept, &cp)
		}
	}
	for _, k := range kept {
		k.Records = k.Best(keepRecords)
	}
	db.Experiences = kept
}

// Classes returns the stored characteristic vectors in order.
func (db *DB) Classes() [][]float64 {
	out := make([][]float64, len(db.Experiences))
	for i, e := range db.Experiences {
		out[i] = e.Characteristics
	}
	return out
}

// Save writes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db)
}

// Load reads a database from JSON.
func Load(r io.Reader) (*DB, error) {
	var db DB
	if err := json.NewDecoder(r).Decode(&db); err != nil {
		return nil, fmt.Errorf("history: decoding database: %w", err)
	}
	return &db, nil
}

// SaveFile writes the database to path atomically and durably: the temp
// file is fsynced before the rename and the parent directory is fsynced
// after it, so a crash can never publish an empty or partial database —
// either the old contents or the new survive.
func (db *DB) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
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
	// Make the rename itself durable. Some filesystems refuse directory
	// fsync; the rename is still atomic then, so best effort is right.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() //nolint:errcheck // best effort
		d.Close()
	}
	return nil
}

// LoadFile reads a database from path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Analyzer is the paper's data analyzer: it classifies observed workload
// characteristics against the database and retrieves the matching
// experience.
type Analyzer struct {
	DB         *DB
	Classifier Classifier
	// MaxDistance, when > 0, rejects matches farther than this squared
	// error: "for those input data with characteristics that have never
	// been seen before, the tuning server may simply use the default tuning
	// mechanism" (§4.2).
	MaxDistance float64
}

// NewAnalyzer returns an analyzer over db using least-squares
// classification.
func NewAnalyzer(db *DB) *Analyzer {
	return &Analyzer{DB: db, Classifier: LeastSquares{}}
}

// Match classifies the observed characteristics. ok is false when the
// database is empty or the best match exceeds MaxDistance.
func (a *Analyzer) Match(observed []float64) (exp *Experience, dist float64, ok bool) {
	if a.DB == nil || a.DB.Len() == 0 {
		return nil, 0, false
	}
	cls := a.Classifier
	if cls == nil {
		cls = LeastSquares{}
	}
	idx, d, err := cls.Classify(observed, a.DB.Classes())
	if err != nil {
		return nil, 0, false
	}
	if a.MaxDistance > 0 && d > a.MaxDistance {
		return nil, d, false
	}
	return a.DB.Experiences[idx], d, true
}
