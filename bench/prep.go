package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"harmony/internal/expdb"
	"harmony/internal/search"
	"harmony/internal/server"
	"harmony/internal/stats"
	"harmony/internal/tpcw"
)

// fillerApps spreads the filler experiences over this many namespaces.
const fillerApps = 40

// prepareStore builds, untimed, the durable data dir warm-web reopens at
// every setup. It drives a daemon over that store: sz.Filler short filler
// sessions of other apps, folded into the snapshot, then one real cold
// session per (app, mix), left in the WAL tail, so that recovery loads a
// snapshot and replays a WAL. The real sessions' truths enter the ledgers.
func prepareStore(sz sizes, seed uint64, apps []webApp, ledgers []*ledger, dir string) (err error) {
	work := dir + ".building"
	db, err := expdb.Open(expdb.Options{Dir: work, Sync: expdb.SyncNone, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, db.Close(), os.RemoveAll(work)) }()
	s := server.NewServer()
	s.Experience = server.NewDurableStore(db, nil)
	a, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := a.String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = errors.Join(err, s.Shutdown(ctx))
	}()

	rng := stats.NewRNG(seed ^ 0x3c6ef372fe94f82b)
	type filler struct {
		chars  []float64
		cx, cy int
	}
	fillers := make([]filler, sz.Filler)
	for i := range fillers {
		chars, sum := make([]float64, tpcw.NumInteractions), 0.0
		for k := range chars {
			chars[k] = rng.Float64()
			sum += chars[k]
		}
		for k := range chars {
			chars[k] /= sum
		}
		fillers[i] = filler{chars, rng.IntRange(0, 60), rng.IntRange(0, 60)}
	}
	err = parallel(sz.Conns, func(w int) error {
		for i := w; i < len(fillers); i += sz.Conns {
			f := fillers[i]
			opts := server.RegisterOptions{App: fmt.Sprintf("filler-%02d", i%fillerApps),
				Characteristics: f.chars, MaxEvals: 6, Improved: true, Proto: 3}
			if err := tuneOnce(addr, quadRSL, opts, func(cfg search.Config) float64 { return quad(cfg, f.cx, f.cy) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := db.Snapshot(); err != nil {
		return err
	}

	rsl := webRSL()
	err = parallel(len(apps), func(a int) error {
		for _, mix := range tpcw.StandardMixes() {
			opts := server.RegisterOptions{App: apps[a].name, Characteristics: tpcw.MixCharacteristics(mix),
				MaxEvals: sz.MaxEvals, Improved: true, Proto: 3}
			obj := apps[a].cluster.ObjectiveStableAt(mix)
			err := tuneOnce(addr, rsl, opts, func(cfg search.Config) float64 {
				perf := obj.Measure(cfg)
				ledgers[a].add(cfg, perf)
				return perf
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := db.Flush(); err != nil {
		return err
	}
	return copyDir(work, dir)
}

// tuneOnce runs one whole tuning session on a fresh connection.
func tuneOnce(addr, rsl string, opts server.RegisterOptions, measure func(search.Config) float64) error {
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	if _, err = c.Register(rsl, opts); err == nil {
		_, err = c.Tune(measure)
	}
	return errors.Join(err, c.Close())
}

// parallel runs fn(0..n-1) on n goroutines and joins their errors.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
