package ctlplane

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"harmony/internal/search"
	"harmony/internal/server"
)

// heapAfterGC returns the live heap once garbage collection has settled.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedHeapAfterMuxSessions measures what outlives 5,000 finished
// two-parameter sessions on two mux connections: the live heap the daemon
// holds once they are over, above what it held before the first, and the
// part of it the hub's replay ring holds alone. The rest is the session
// registry (the finished-session ring). A kept configuration is a view of
// its session's slab, so an event or a best that outlives the session
// keeps that slab: the ring holds its events and the slabs of the sessions
// they name, and the registry its snapshots and one slab per retained
// session, not the sessions' evaluators or traces.
func TestRetainedHeapAfterMuxSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 5,000 sessions")
	}
	const sessions, conns, perConn, maxEvals = 5000, 2, 16, 40
	hub := NewHub(0, nil)
	srv := server.NewServer()
	srv.Tracer = hub
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rsl := "{ harmonyBundle x { int {0 60 1} } }\n{ harmonyBundle y { int {0 60 1} } }"
	measure := func(cfg search.Config) float64 {
		dx, dy := float64(cfg[0]-20), float64(cfg[1]-45)
		return 1000 - dx*dx - dy*dy
	}
	before := heapAfterGC()
	var wg sync.WaitGroup
	errs := make(chan error, conns*perConn)
	muxes := make([]*server.Mux, conns)
	for c := range muxes {
		if muxes[c], err = server.DialMux(addr.String(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < perConn; w++ {
			wg.Add(1)
			go func(mx *server.Mux, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					cl := mx.Session()
					if _, err := cl.Register(rsl, server.RegisterOptions{Improved: true, MaxEvals: maxEvals}); err != nil {
						errs <- err
						return
					}
					if _, err := cl.Tune(measure); err != nil {
						errs <- err
						return
					}
					cl.Close()
				}
			}(muxes[c], sessions/(conns*perConn))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, mx := range muxes {
		mx.Close()
	}
	muxes = nil
	for deadline := time.Now().Add(10 * time.Second); srv.SessionSnapshots()[0].Status == server.StatusRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sessions did not end")
		}
	}

	after := heapAfterGC()
	hub.mu.Lock()
	events := len(hub.ring)
	named := map[string]bool{}
	for _, ev := range hub.ring {
		named[ev.Event.Session] = true
	}
	hub.ring = nil
	hub.mu.Unlock()
	withoutRing := heapAfterGC()
	retained := len(srv.SessionSnapshots())

	ringHeap, registryHeap := int64(after)-int64(withoutRing), int64(withoutRing)-int64(before)
	t.Logf("hub ring: %d events of %d sessions, %d B; registry: %d sessions, %d B",
		events, len(named), ringHeap, retained, registryHeap)
	if limit := 2 * int64(events) * int64(unsafe.Sizeof(sseEvent{})); ringHeap > limit {
		t.Errorf("hub ring holds %d B, want at most %d B, twice its events", ringHeap, limit)
	}
	if limit := int64(retained) * 2048; registryHeap > limit {
		t.Errorf("registry holds %d B, want at most %d B, 2 KiB per retained session", registryHeap, limit)
	}
}
