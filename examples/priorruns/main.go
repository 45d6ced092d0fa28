// Priorruns: the paper's §4.2 data analyzer in action. Tune one workload,
// store the experience in the data characteristics database, then face a
// new workload: the analyzer observes a request sample, matches the closest
// stored experience by least-squares classification, and the tuning server
// warm-starts from it — cutting convergence time and skipping the initial
// bad-performance oscillation.
//
//	go run ./examples/priorruns
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"harmony/internal/core"
	"harmony/internal/expdb"
	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
	"harmony/internal/webservice"
)

func main() {
	space := webservice.Space()

	// Yesterday: the system served a shopping-like workload and was tuned.
	yesterday := tpcw.Shopping.Interpolate(tpcw.Ordering, 0.1)
	cluster := webservice.NewCluster(webservice.Options{Seed: 11})
	tuner := core.New(space, cluster.Objective(yesterday, true))
	sess, err := tuner.Run(core.Options{Direction: search.Maximize, MaxEvals: 100, Improved: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("yesterday (%s): tuned to WIPS %.1f in %d explorations\n",
		yesterday.Name, sess.Result.BestPerf, sess.Result.Evals)

	// Store the experience, keyed by the workload's interaction-frequency
	// characteristics, and persist the database.
	db := history.NewDB()
	db.Add(history.FromTrace(yesterday.Name, tpcw.MixCharacteristics(yesterday),
		search.Maximize, sess.Result.Trace))
	path := filepath.Join(os.TempDir(), "harmony-experience.json")
	if err := db.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("experience database saved to %s\n\n", path)

	// Today: a new (but similar) workload arrives. Reload the database and
	// let the data analyzer characterize the incoming requests.
	db, err = history.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	today := tpcw.Shopping
	sample := tpcw.GenerateStream(today, 400, 1, stats.NewRNG(23))
	observed := tpcw.Characteristics(sample)
	analyzer := history.NewAnalyzer(db)
	exp, dist, ok := analyzer.Match(observed)
	if !ok {
		log.Fatal("no usable experience found; the server would fall back to cold tuning")
	}
	fmt.Printf("data analyzer matched experience %q (characteristic distance %.4f)\n",
		exp.Label, dist)

	// Tune today's workload twice: cold, and warm-started from the match.
	todayCluster := webservice.NewCluster(webservice.Options{Seed: 29})
	todayTuner := core.New(space, todayCluster.Objective(today, true))

	cold, err := todayTuner.Run(core.Options{Direction: search.Maximize, MaxEvals: 100, Improved: true})
	if err != nil {
		log.Fatal(err)
	}
	warm, err := todayTuner.Run(core.Options{
		Direction: search.Maximize, MaxEvals: 100, Improved: true, Experience: exp,
	})
	if err != nil {
		log.Fatal(err)
	}

	report := func(label string, s *core.Session) {
		m := s.Metrics(0.02, 10, 0.7)
		fmt.Printf("  %-14s best WIPS %6.1f  converged@%3d  worst-seen %5.1f  bad iterations %d\n",
			label, m.BestPerf, m.ConvergenceIter, m.WorstPerf, m.BadIterations)
	}
	fmt.Println("\ntoday (shopping), cold vs warm start:")
	report("cold start", cold)
	report("with history", warm)

	// The durable variant: the same round trip through the crash-safe
	// experience database (internal/expdb), the store harmonyd mounts with
	// -data-dir. Deposit yesterday's trace, abandon the store without
	// Close — as a killed process would — and recover it from the
	// write-ahead log alone. The directory is fresh per run, so every run
	// recovers exactly its own deposit.
	dataDir, err := os.MkdirTemp("", "harmony-expdb-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	store, err := expdb.Open(expdb.Options{Dir: dataDir})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := store.Deposit("priorruns/webservice", yesterday.Name,
		tpcw.MixCharacteristics(yesterday), search.Maximize, sess.Result.Trace); err != nil {
		log.Fatal(err)
	}
	// No store.Close(): the "process" dies here.

	reopened, err := expdb.Open(expdb.Options{Dir: dataDir})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	rexp, rdist, ok := reopened.Match("priorruns/webservice", observed)
	if !ok {
		log.Fatal("recovered store missed the match")
	}
	fmt.Printf("\ndurable store (%s): recovered %d experience(s) from the WAL,\n",
		dataDir, reopened.Len())
	fmt.Printf("matched %q at distance %.4f — the warm start survives a server crash\n",
		rexp.Label, rdist)
	durable, err := todayTuner.Run(core.Options{
		Direction: search.Maximize, MaxEvals: 100, Improved: true, Experience: rexp,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("from disk", durable)
}
