package expdb

import (
	"os"
	"path/filepath"
	"testing"

	"harmony/internal/search"
)

// TestMemoryStoreLifecycle runs a memory store through every call that
// would touch the WAL or the snapshot on a durable store — Deposit, Match,
// WalkRecords, Prune, Flush, Close — and checks that each succeeds and no
// file appears, not even in the Dir the options name.
func TestMemoryStoreLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "unused")
	s := NewMemory(Options{Dir: dir, CompactAbove: 2})

	for i, chars := range [][]float64{{0.8, 0.2}, {0.1, 0.9}, {0.5, 0.5}, {0.8, 0.2}} {
		stored, err := s.Deposit("app/s1", "w", chars, search.Maximize, trace(10*i, 20, 4))
		if err != nil || !stored {
			t.Fatalf("Deposit %d = %v, %v", i, stored, err)
		}
	}
	if stored, err := s.Deposit("other/s2", "w", []float64{1}, search.Maximize, trace(1, 2, 2)); err != nil || !stored {
		t.Fatalf("Deposit under other/s2 = %v, %v", stored, err)
	}
	// Compaction bounds the memory view as it does the durable one: past
	// CompactAbove=2 the repeated {0.8, 0.2} workload merges into one class.
	if n := s.NamespaceLen("app/s1"); n != 3 {
		t.Fatalf("app/s1 holds %d experiences, want 3 after compaction", n)
	}

	exp, _, ok := s.Match("app/s1", []float64{0.11, 0.89})
	if !ok || exp.Characteristics[0] != 0.1 {
		t.Fatalf("Match = %+v, %v; want the {0.1, 0.9} class", exp, ok)
	}
	walked := 0
	s.WalkRecords("app/s1", func(search.Config, float64) { walked++ })
	if walked < 12 {
		t.Fatalf("walked %d records, want at least 12", walked)
	}

	if removed, err := s.Prune("app/s1"); err != nil || removed != 3 {
		t.Fatalf("Prune = %d, %v; want 3, nil", removed, err)
	}
	if _, _, ok := s.Match("app/s1", []float64{0.1, 0.9}); ok {
		t.Fatal("pruned namespace still matches")
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Deposit("other/s2", "w", []float64{1}, search.Maximize, trace(1, 2, 2)); err == nil {
		t.Fatal("Deposit after Close succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("memory store touched its Dir: stat err = %v", err)
	}
}
