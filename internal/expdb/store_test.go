package expdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"harmony/internal/obs"
	"harmony/internal/search"
)

// trace builds a small tuning trace whose best point is (bx, by).
func trace(bx, by, n int) search.Trace {
	tr := make(search.Trace, 0, n)
	for i := 0; i < n; i++ {
		cfg := search.Config{bx + i, by - i}
		tr = append(tr, search.Evaluation{Config: cfg, Perf: float64(100 - i*i), Index: i})
	}
	return tr
}

func openTest(t *testing.T, dir string, mutate func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDepositMatchRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()

	stored, err := s.Deposit("app/s1", "w1", []float64{0.8, 0.2}, search.Maximize, trace(10, 20, 4))
	if err != nil || !stored {
		t.Fatalf("Deposit = %v, %v", stored, err)
	}
	// Empty characteristics or trace deposit nothing.
	if stored, err := s.Deposit("app/s1", "w", nil, search.Maximize, trace(1, 1, 2)); err != nil || stored {
		t.Fatalf("chars-free Deposit = %v, %v", stored, err)
	}
	if stored, err := s.Deposit("app/s1", "w", []float64{1}, search.Maximize, nil); err != nil || stored {
		t.Fatalf("trace-free Deposit = %v, %v", stored, err)
	}

	exp, dist, ok := s.Match("app/s1", []float64{0.79, 0.21})
	if !ok {
		t.Fatal("Match missed")
	}
	if exp.Label != "w1" || len(exp.Records) != 4 {
		t.Fatalf("matched %+v", exp)
	}
	if dist > 0.001 {
		t.Fatalf("dist = %v", dist)
	}
	if _, _, ok := s.Match("other/ns", []float64{0.8, 0.2}); ok {
		t.Fatal("Match crossed namespaces")
	}
	if _, _, ok := s.Match("app/s1", nil); ok {
		t.Fatal("Match accepted empty characteristics")
	}
}

func TestMatchReturnsDetachedClone(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	s.Deposit("k", "w", []float64{1, 0}, search.Maximize, trace(5, 5, 3))
	exp, _, _ := s.Match("k", []float64{1, 0})
	exp.Records[0].Perf = -1e9
	exp.Characteristics[0] = 42

	again, _, _ := s.Match("k", []float64{1, 0})
	if again.Records[0].Perf == -1e9 || again.Characteristics[0] == 42 {
		t.Fatal("Match handed out shared mutable state")
	}
}

// TestCrashRecovery simulates kill -9: the first store is abandoned
// without Close or Snapshot; a second store on the same directory must see
// every acknowledged deposit via WAL replay alone.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, nil)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("app/s%d", i%2)
		if _, err := s1.Deposit(key, "w", []float64{float64(i), 1}, search.Maximize, trace(i, i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close, no Snapshot: the process "dies" here.

	s2 := openTest(t, dir, nil)
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("recovered %d experiences, want 5", s2.Len())
	}
	exp, _, ok := s2.Match("app/s1", []float64{3, 1})
	if !ok || exp.Characteristics[0] != 3 {
		t.Fatalf("post-crash Match = %+v, ok=%v", exp, ok)
	}
}

// TestCrashRecoveryTornTail corrupts the WAL tail the way a crash
// mid-write would, and verifies every record before the corruption point
// survives while the tail is truncated for clean appends.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, nil)
	for i := 0; i < 3; i++ {
		if _, err := s1.Deposit("k", "w", []float64{float64(i)}, search.Maximize, trace(i, i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.Truncate(walPath, fi.Size()-20); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, nil)
	if s2.Len() != 2 {
		t.Fatalf("recovered %d experiences after torn tail, want 2", s2.Len())
	}
	// The tail was truncated: appending must produce a decodable log.
	if _, err := s2.Deposit("k", "w", []float64{9}, search.Maximize, trace(9, 9, 2)); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, nil)
	defer s3.Close()
	if s3.Len() != 3 {
		t.Fatalf("after truncate+append+reopen: %d experiences, want 3", s3.Len())
	}
	s2.Close()
}

// TestSnapshotFoldsWAL verifies the snapshot cadence: the WAL shrinks, the
// snapshot file appears, and recovery after a snapshot + further deposits
// replays without duplicating anything (the AppliedLSN horizon).
func TestSnapshotFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, func(o *Options) { o.SnapshotEvery = 4 })
	for i := 0; i < 10; i++ {
		// Distinct characteristics so compaction doesn't merge them.
		if _, err := s1.Deposit("k", "w", []float64{float64(i), -float64(i)}, search.Maximize, trace(i, i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after 10 deposits at cadence 4: %v", err)
	}
	// Crash without Close.
	s2 := openTest(t, dir, nil)
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("recovered %d experiences, want 10 (no loss, no duplication)", s2.Len())
	}
	if got := s2.NamespaceLen("k"); got != 10 {
		t.Fatalf("namespace holds %d, want 10", got)
	}
}

func TestCompactionBoundsNamespace(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) {
		o.CompactAbove = 8
		o.MergeDist = 10 // generous: everything merges
		o.KeepRecords = 4
	})
	defer s.Close()
	for i := 0; i < 50; i++ {
		if _, err := s.Deposit("k", "w", []float64{1, 1}, search.Maximize, trace(i%5, i%5, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NamespaceLen("k"); got > 9 {
		t.Fatalf("namespace grew to %d despite compaction threshold 8", got)
	}
	exp, _, ok := s.Match("k", []float64{1, 1})
	if !ok {
		t.Fatal("Match missed after compaction")
	}
	if len(exp.Records) > 4 {
		t.Fatalf("experience kept %d records, want <= 4", len(exp.Records))
	}
}

func TestConcurrentDepositsAndMatches(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.SnapshotEvery = 8 })
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("app/s%d", g%3)
			for i := 0; i < 20; i++ {
				if _, err := s.Deposit(key, "w", []float64{float64(g), float64(i)}, search.Maximize, trace(i, g, 2)); err != nil {
					errs <- err
					return
				}
				s.Match(key, []float64{float64(g), float64(i)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Everything acknowledged must survive a reopen.
	dir := s.opts.Dir
	s.Close()
	s2 := openTest(t, dir, nil)
	defer s2.Close()
	total := 0
	for i := 0; i < 3; i++ {
		total += s2.NamespaceLen(fmt.Sprintf("app/s%d", i))
	}
	if total == 0 {
		t.Fatal("nothing survived the concurrent run")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted empty Dir")
	}
}

func TestDepositAfterCloseFails(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	s.Close()
	if _, err := s.Deposit("k", "w", []float64{1}, search.Maximize, trace(1, 1, 1)); err == nil {
		t.Fatal("Deposit succeeded on a closed store")
	}
}

// TestSnapshotsOfIdenticalStoresAreByteIdentical: two stores holding the
// same experiences write the same snapshot bytes, even when deposits into
// different namespaces arrived in a different order.
func TestSnapshotsOfIdenticalStoresAreByteIdentical(t *testing.T) {
	keys := []string{"app/a", "app/b", "filler/c", "zz/d", "app/e"}
	build := func(order []int) []byte {
		dir := t.TempDir()
		s := openTest(t, dir, func(o *Options) { o.SnapshotEvery = -1 })
		for round := 0; round < 3; round++ {
			for _, k := range order {
				chars := []float64{float64(k), float64(round)}
				if _, err := s.Deposit(keys[k], "w", chars, search.Maximize, trace(k, round, 3)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build([]int{0, 1, 2, 3, 4}), build([]int{4, 2, 0, 3, 1})
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots of identical stores differ (%d vs %d bytes)", len(a), len(b))
	}
}

// copyDataDir copies the files of a data directory into a fresh one, so
// two stores can be opened on the same state without sharing a WAL.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{snapshotName, walName} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestLazyOpenMatchesEager: a freshly opened store, whose snapshot
// namespaces are cold, and one where every namespace has been touched
// answer every call alike and write byte-identical snapshots, before and
// after the cold side is touched too.
func TestLazyOpenMatchesEager(t *testing.T) {
	src := t.TempDir()
	s := openTest(t, src, func(o *Options) { o.SnapshotEvery = -1 })
	keys := []string{"app/a", "app/b", "app/c", "filler/d", "filler/e", "zz/f"}
	for round := 0; round < 4; round++ {
		for k, key := range keys {
			dir := search.Maximize
			if k%2 == 1 {
				dir = search.Minimize
			}
			chars := []float64{float64(k), float64(round), -0.5 * float64(k*round)}
			if _, err := s.Deposit(key, fmt.Sprintf("w%d", round%2), chars, dir, trace(k-round, round*7, 1+(k+round)%4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A WAL tail into one snapshot namespace and one new namespace: replay
	// decodes the first and creates the second.
	for i, key := range []string{"app/b", "new/g", "app/b"} {
		if _, err := s.Deposit(key, "tail", []float64{9, float64(i), 1}, search.Maximize, trace(i, i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.wal.close(); err != nil { // no fold: both opens replay the tail
		t.Fatal(err)
	}

	ma, mb := NewMetrics(obs.NewRegistry()), NewMetrics(obs.NewRegistry())
	lazy := openTest(t, copyDataDir(t, src), func(o *Options) { o.Metrics = ma })
	defer lazy.Close()
	eager := openTest(t, copyDataDir(t, src), func(o *Options) { o.Metrics = mb })
	defer eager.Close()
	for _, info := range eager.Namespaces() {
		eager.WalkRecords(info.Key, func(search.Config, float64) {})
	}
	if got := eager.coldNamespaces(); got != 0 {
		t.Fatalf("eager store has %d cold namespaces after touching all", got)
	}
	wantCold := len(keys) - 1 // app/b was decoded by the WAL replay
	if got := lazy.coldNamespaces(); got != wantCold {
		t.Fatalf("fresh store has %d cold namespaces, want %d", got, wantCold)
	}

	sameCounts := func(when string) {
		t.Helper()
		if a, b := lazy.Len(), eager.Len(); a != b {
			t.Fatalf("%s: Len %d vs %d", when, a, b)
		}
		if a, b := lazy.Namespaces(), eager.Namespaces(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Namespaces\n lazy  %+v\n eager %+v", when, a, b)
		}
		for _, key := range append(keys, "new/g", "missing/x") {
			if a, b := lazy.NamespaceLen(key), eager.NamespaceLen(key); a != b {
				t.Fatalf("%s: NamespaceLen(%q) %d vs %d", when, key, a, b)
			}
		}
		if a, b := ma.IndexSize.Value(), mb.IndexSize.Value(); a != b {
			t.Fatalf("%s: expdb_index_size %v vs %v", when, a, b)
		}
		if a, b := ma.Namespaces.Value(), mb.Namespaces.Value(); a != b {
			t.Fatalf("%s: expdb_namespaces %v vs %v", when, a, b)
		}
	}
	sameSnapshot := func(when string) {
		t.Helper()
		if err := lazy.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := eager.Snapshot(); err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(filepath.Join(lazy.opts.Dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(eager.opts.Dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: snapshots differ (%d vs %d bytes)", when, len(a), len(b))
		}
	}

	sameCounts("cold")
	sameSnapshot("cold")
	if got := lazy.coldNamespaces(); got != wantCold {
		t.Fatalf("counting and snapshotting decoded namespaces: %d cold, want %d", got, wantCold)
	}
	ra, errA := lazy.Prune("filler/e")
	rb, errB := eager.Prune("filler/e")
	if errA != nil || errB != nil || ra != rb || ra == 0 {
		t.Fatalf("Prune: lazy %d, %v; eager %d, %v", ra, errA, rb, errB)
	}
	sameCounts("pruned")
	sameSnapshot("pruned") // Prune snapshots too; this compares a second one

	// First touch by each reader in turn, then every reader on every key.
	type walked struct {
		Cfg  search.Config
		Perf float64
	}
	walk := func(st *Store, key string) (out []walked) {
		st.WalkRecords(key, func(cfg search.Config, perf float64) { out = append(out, walked{cfg, perf}) })
		return out
	}
	for i, key := range keys {
		switch i % 3 {
		case 0:
			lazy.Match(key, []float64{0, 0, 0})
		case 1:
			walk(lazy, key)
		case 2:
			lazy.WalkRecordsPage(key, 0, 0)
		}
		for _, q := range [][]float64{{0, 0, 0}, {float64(i), 2, -1}, {5, 3, -7.5}} {
			ea, da, oka := lazy.Match(key, q)
			eb, db, okb := eager.Match(key, q)
			if oka != okb || da != db || !reflect.DeepEqual(ea, eb) {
				t.Fatalf("Match(%q, %v): lazy %+v %v %v, eager %+v %v %v", key, q, ea, da, oka, eb, db, okb)
			}
		}
		if a, b := walk(lazy, key), walk(eager, key); !reflect.DeepEqual(a, b) {
			t.Fatalf("WalkRecords(%q): lazy %v, eager %v", key, a, b)
		}
		pa, ta := lazy.WalkRecordsPage(key, 1, 3)
		pb, tb := eager.WalkRecordsPage(key, 1, 3)
		if ta != tb || !reflect.DeepEqual(pa, pb) {
			t.Fatalf("WalkRecordsPage(%q): lazy %v/%d, eager %v/%d", key, pa, ta, pb, tb)
		}
	}
	if got := lazy.coldNamespaces(); got != 0 {
		t.Fatalf("%d namespaces still cold after every key was read", got)
	}
	sameCounts("touched")
	sameSnapshot("touched")
}

// TestFirstTouchConcurrent races first-touch Match, WalkRecords and
// Deposit calls on one cold namespace: it must be decoded exactly once —
// a second decode would duplicate its experiences — and no deposit may be
// lost. Run it under -race.
func TestFirstTouchConcurrent(t *testing.T) {
	const (
		snapExps = 20
		perTrace = 3
		writers  = 4
		deposits = 2
	)
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	for i := 0; i < snapExps; i++ {
		if _, err := s.Deposit("app/cold", "w", []float64{float64(i), 1}, search.Maximize, trace(i, i, perTrace)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, func(o *Options) { o.CompactAbove = -1; o.Sync = SyncNone })
	if got := s.coldNamespaces(); got != 1 {
		t.Fatalf("%d cold namespaces after reopen, want 1", got)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			if _, _, ok := s.Match("app/cold", []float64{3, 1}); !ok {
				t.Error("first-touch Match missed")
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			n := 0
			s.WalkRecords("app/cold", func(search.Config, float64) { n++ })
			if n < snapExps*perTrace {
				t.Errorf("first-touch WalkRecords saw %d records, want at least %d", n, snapExps*perTrace)
			}
		}()
		go func(g int) {
			defer wg.Done()
			<-start
			if g >= writers {
				return
			}
			for i := 0; i < deposits; i++ {
				if _, err := s.Deposit("app/cold", "w", []float64{float64(100 + g), float64(i)}, search.Maximize, trace(g, i, perTrace)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	want := snapExps + writers*deposits
	if got := s.NamespaceLen("app/cold"); got != want || s.Len() != want {
		t.Fatalf("after concurrent first touch: NamespaceLen %d, Len %d; want %d", got, s.Len(), want)
	}
	n := 0
	s.WalkRecords("app/cold", func(search.Config, float64) { n++ })
	if n != want*perTrace {
		t.Fatalf("walked %d records, want %d", n, want*perTrace)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, nil)
	defer s.Close()
	if s.Len() != want {
		t.Fatalf("reopened store holds %d experiences, want %d", s.Len(), want)
	}
}

// TestSnapshotFrameInUntouchedNamespaceFailsOpen: Open validates every
// snapshot frame even though it decodes none. A frame whose CRC holds but
// whose payload is not what Snapshot writes fails Open with an error
// naming the file, whichever namespace it sits in.
func TestSnapshotFrameInUntouchedNamespaceFailsOpen(t *testing.T) {
	exp := func(key string, lsn uint64) []byte {
		return appendPayload(nil, record{LSN: lsn, Key: key, Exp: mkExp("w", []float64{1, 2}, 2)})
	}
	overlong := exp("zz/untouched", 0)
	overlong = append([]byte{overlong[0], 0x80, 0x00}, overlong[2:]...) // LSN 0 in two bytes
	image := func(payloads ...[]byte) []byte {
		b := frameOf(t, record{LSN: 1, Count: uint64(len(payloads))})
		for _, p := range payloads {
			b = append(b, rawFrame(p)...)
		}
		return b
	}
	for name, tc := range map[string]struct {
		snap []byte
		ok   bool
	}{
		"well formed":        {image(exp("app/a", 0), exp("zz/untouched", 0)), true},
		"overlong varint":    {image(exp("app/a", 0), overlong), false},
		"overlong value":     {image(exp("app/a", 0), overlongValue(t, "zz/untouched")), false},
		"trailing byte":      {image(exp("app/a", 0), append(exp("zz/untouched", 0), 0)), false},
		"nonzero LSN":        {image(exp("app/a", 0), exp("zz/untouched", 7)), false},
		"keys out of order":  {image(exp("zz/untouched", 0), exp("app/a", 0)), false},
		"key run split":      {image(exp("app/a", 0), exp("zz/untouched", 0), exp("app/a", 0)), false},
		"unknown format":     {image(exp("app/a", 0), append([]byte{0x03}, exp("zz/untouched", 0)[1:]...)), false},
		"experience as head": {append(rawFrame(exp("app/a", 0)), rawFrame(exp("zz/untouched", 0))...), false},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, snapshotName)
		if err := os.WriteFile(path, tc.snap, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s.Len() != 2 {
				t.Fatalf("%s: opened %d experiences, want 2", name, s.Len())
			}
			s.Close()
			continue
		}
		if err == nil {
			s.Close()
			t.Fatalf("%s: Open accepted the snapshot", name)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error %q does not name %s", name, err, path)
		}
	}
}

// TestSnapshotFlipFailsOpen flips each byte of a snapshot in turn, two
// ways, and requires every damaged copy to fail Open with an error naming
// the file: no damaged value may load as a prior run's truth.
func TestSnapshotFlipFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	for i := 0; i < 2; i++ {
		if _, err := s.Deposit(fmt.Sprintf("app/s%d", i), "w", []float64{float64(i), 1}, search.Maximize, trace(i, i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	path := filepath.Join(work, snapshotName)
	for i := range snap {
		for _, mask := range []byte{0x01, 0xff} {
			bad := append([]byte(nil), snap...)
			bad[i] ^= mask
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Options{Dir: work})
			if err == nil {
				s.Close()
				t.Fatalf("byte %d ^ %#x: Open accepted a damaged snapshot", i, mask)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("byte %d ^ %#x: error %q does not name %s", i, mask, err, path)
			}
		}
	}
}

// TestSnapshotCutFailsOpen cuts a snapshot at every length short of its
// own, frame boundaries included, and requires every cut copy to fail
// Open with an error naming the file: a snapshot that lost its tail must
// not open as a smaller store, since the WAL it folded is gone.
func TestSnapshotCutFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	for i := 0; i < 3; i++ {
		if _, err := s.Deposit(fmt.Sprintf("app/s%d", i), "w", []float64{float64(i), 1}, search.Maximize, trace(i, i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, err := decodeFrames(snap); err != nil || len(recs) != 4 || recs[0].Count != 3 {
		t.Fatalf("snapshot decodes to %d records (horizon %+v), err %v; want a horizon declaring 3, then 3", len(recs), recs[0], err)
	}
	work := t.TempDir()
	path := filepath.Join(work, snapshotName)
	for n := 0; n < len(snap); n++ {
		if err := os.WriteFile(path, snap[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: work})
		if err == nil {
			s.Close()
			t.Fatalf("snapshot cut to %d of %d bytes: Open accepted it", n, len(snap))
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("cut to %d bytes: error %q does not name %s", n, err, path)
		}
	}
}

// TestOpenRefusesJSONDataDir: a data dir in the JSON-era format (a
// snapshot.json, or a WAL of JSON payloads), or a WAL holding a CRC-intact
// record that does not decode, fails Open with an error naming the file,
// and every file is left byte-identical: no truncation, no rewrite, no new
// snapshot.
func TestOpenRefusesJSONDataDir(t *testing.T) {
	jsonWAL := append(rawFrame([]byte(`{"lsn":1,"key":"app/spec","exp":{"label":"w","characteristics":[1],"records":[{"config":[0,0],"perf":100,"seq":0}],"direction":0}}`)),
		rawFrame([]byte(`{"lsn":2,"key":"app/spec","exp":{"label":"w","characteristics":[2],"records":[],"direction":0}}`))...)
	for name, files := range map[string]map[string][]byte{
		"snapshot.json": {jsonSnapshotName: []byte(`{"applied_lsn":0,"namespaces":{}}`), walName: jsonWAL},
		"JSON WAL":      {walName: jsonWAL},
		"JSON WAL after binary records": {walName: append(frameOf(t, record{LSN: 1, Key: "k", Exp: mkExp("w", []float64{1}, 1)}),
			rawFrame([]byte(`{"lsn":2}`))...)},
		"malformed binary record after binary records": {walName: append(frameOf(t, record{LSN: 1, Key: "k", Exp: mkExp("w", []float64{1}, 1)}),
			rawFrame([]byte{formatExperience, 2, 0xff})...)},
	} {
		dir := t.TempDir()
		for f, b := range files {
			if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(Options{Dir: dir})
		if err == nil {
			s.Close()
			t.Fatalf("%s: Open accepted an old-format data dir", name)
		}
		named := filepath.Join(dir, walName)
		if _, ok := files[jsonSnapshotName]; ok {
			named = filepath.Join(dir, jsonSnapshotName)
		}
		if !strings.Contains(err.Error(), named) {
			t.Errorf("%s: error %q does not name %s", name, err, named)
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != len(files) {
			t.Errorf("%s: Open left %d files, want the %d it found", name, len(entries), len(files))
		}
		for f, want := range files {
			if got, _ := os.ReadFile(filepath.Join(dir, f)); !bytes.Equal(got, want) {
				t.Errorf("%s: Open changed %s", name, f)
			}
		}
	}
}

// TestOpenRecordsRecoverySeconds: every Open sets expdb_recovery_seconds,
// and a reopen reads everything back from the snapshot alone.
func TestOpenRecordsRecoverySeconds(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	if _, err := s.Deposit("k", "w", []float64{1}, search.Maximize, trace(1, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	s2 := openTest(t, dir, func(o *Options) { o.Metrics = m })
	defer s2.Close()
	if m.RecoverySeconds.Value() <= 0 {
		t.Fatalf("expdb_recovery_seconds = %v after Open", m.RecoverySeconds.Value())
	}
	if s2.Len() != 1 || m.RecoveredRecords.Value() != 0 {
		t.Fatalf("reopen: %d experiences, %v WAL records replayed; want 1 from the snapshot, 0 replayed",
			s2.Len(), m.RecoveredRecords.Value())
	}
	var out bytes.Buffer
	reg.WritePrometheus(&out)
	if !strings.Contains(out.String(), "\nexpdb_recovery_seconds ") {
		t.Fatalf("expdb_recovery_seconds not exported:\n%s", out.String())
	}
}
