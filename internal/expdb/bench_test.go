package expdb

import (
	"fmt"
	"testing"

	"harmony/internal/search"
	"harmony/internal/stats"
)

// warmWebStore builds, in dir, a store shaped like the one the repository
// benchmark's warm-web workload reopens: 40 namespaces × 25 experiences of
// 6 ten-parameter records over 14 characteristics, folded into the
// snapshot, plus a 6-record WAL tail. The store is left as a crash leaves
// it: the tail is not folded.
func warmWebStore(b *testing.B, dir string) {
	b.Helper()
	rng := stats.NewRNG(1)
	s, err := Open(Options{Dir: dir, Sync: SyncNone, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	deposit := func(key string) {
		chars := make([]float64, 14)
		for k := range chars {
			chars[k] = rng.Float64()
		}
		tr := make(search.Trace, 6)
		for i := range tr {
			cfg := make(search.Config, 10)
			for k := range cfg {
				cfg[k] = rng.IntRange(0, 60)
			}
			tr[i] = search.Evaluation{Index: i, Config: cfg, Perf: 50 + 40*rng.Float64()}
		}
		if _, err := s.Deposit(key, "w", chars, search.Maximize, tr); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 40*25; i++ {
		deposit(fmt.Sprintf("filler-%02d/0123456789abcdef", i%40))
	}
	if err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		deposit(fmt.Sprintf("web-%d/fedcba9876543210", i%2))
	}
	if err := s.wal.close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpen times recovery of the warm-web-shaped store: validate the
// snapshot, leaving its namespaces cold, replay the WAL tail, reopen the
// log.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	warmWebStore(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 40*25+6 {
			b.Fatalf("recovered %d experiences", s.Len())
		}
		b.StopTimer()
		if err := s.wal.close(); err != nil { // no fold: every Open replays the tail
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFirstTouch times the decode Open defers: the first Match on a
// cold namespace of the warm-web-shaped store (25 experiences), which
// decodes the namespace and builds its index.
func BenchmarkFirstTouch(b *testing.B) {
	dir := b.TempDir()
	warmWebStore(b, dir)
	chars := make([]float64, 14)
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("filler-%02d/0123456789abcdef", i)
	}
	var s *Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 { // every filler namespace touched: reopen, all cold again
			b.StopTimer()
			if s != nil {
				if err := s.wal.close(); err != nil {
					b.Fatal(err)
				}
			}
			var err error
			if s, err = Open(Options{Dir: dir, SnapshotEvery: -1}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, _, ok := s.Match(keys[i%len(keys)], chars); !ok {
			b.Fatal("Match missed a filler namespace")
		}
	}
	b.StopTimer()
	if err := s.wal.close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSnapshot times one snapshot of the warm-web-shaped store:
// encode every namespace, publish the file (fsync, rename, directory
// sync) and reset the WAL.
func BenchmarkSnapshot(b *testing.B) {
	dir := b.TempDir()
	warmWebStore(b, dir)
	s, err := Open(Options{Dir: dir, Sync: SyncNone, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
