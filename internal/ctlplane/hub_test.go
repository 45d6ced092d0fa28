package ctlplane

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/obs"
	"harmony/internal/search"
)

func evalEvent(session string, i int) search.Event {
	return search.Event{
		Session: session,
		Type:    search.EventEval,
		Index:   i,
		Perf:    float64(i),
		Time:    time.Unix(1700000000+int64(i), 0),
	}
}

func TestHubDeliversToMatchingSubscribers(t *testing.T) {
	h := NewHub(16, nil)
	defer h.Close()

	all, _, ok := h.subscribe("", 0)
	if !ok {
		t.Fatal("subscribe failed on a live hub")
	}
	defer h.unsubscribe(all)
	onlyA, _, ok := h.subscribe("A", 0)
	if !ok {
		t.Fatal("filtered subscribe failed")
	}
	defer h.unsubscribe(onlyA)

	h.Emit(evalEvent("A", 0))
	h.Emit(evalEvent("B", 1))

	if got := len(all.ch); got != 2 {
		t.Errorf("unfiltered subscriber got %d events, want 2", got)
	}
	if got := len(onlyA.ch); got != 1 {
		t.Fatalf("session-filtered subscriber got %d events, want 1", got)
	}
	ev := <-onlyA.ch
	if ev.Event.Session != "A" {
		t.Errorf("filtered subscriber saw session %q, want A", ev.Event.Session)
	}
}

func TestHubSlowSubscriberDropsInsteadOfBlocking(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHub(16, reg)
	defer h.Close()
	h.bufCap = 4 // shrink the per-subscriber buffer for the test

	slow, _, _ := h.subscribe("", 0)
	defer h.unsubscribe(slow)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			h.Emit(evalEvent("A", i)) // nobody drains: must not block
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a slow subscriber")
	}

	if d := h.subDropped(slow); d != 6 {
		t.Errorf("subscriber drop count = %d, want 6 (10 events, buffer 4)", d)
	}
	if v := h.dropped.Value(); v != 6 {
		t.Errorf("ctlplane_sse_dropped_total = %d, want 6", v)
	}
	// The buffered prefix is intact and in order.
	for i := 0; i < 4; i++ {
		ev := <-slow.ch
		if ev.Event.Index != i {
			t.Fatalf("buffered event %d has index %d, want %d", i, ev.Event.Index, i)
		}
	}
}

func TestHubReplayRingOrderingAndFilter(t *testing.T) {
	h := NewHub(8, nil)
	defer h.Close()
	sessions := []string{"A", "B"}
	for i := 0; i < 20; i++ {
		h.Emit(evalEvent(sessions[i%2], i))
	}

	// Unfiltered: the last 8 events, oldest first, contiguous sequence.
	_, backlog, _ := h.subscribe("", 100)
	if len(backlog) != 8 {
		t.Fatalf("replay returned %d events, want the full ring of 8", len(backlog))
	}
	for i, ev := range backlog {
		if want := uint64(12 + i); ev.Seq != want {
			t.Errorf("replay[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}

	// Filtered: only session A events among the retained 8 (indexes 12..19,
	// A holds the even ones).
	_, backlogA, _ := h.subscribe("A", 100)
	if len(backlogA) != 4 {
		t.Fatalf("filtered replay returned %d events, want 4", len(backlogA))
	}
	for _, ev := range backlogA {
		if ev.Event.Session != "A" {
			t.Errorf("filtered replay leaked session %q", ev.Event.Session)
		}
	}

	// Replay cap: asking for 3 yields the newest 3, still ascending.
	_, tail, _ := h.subscribe("", 3)
	if len(tail) != 3 || tail[0].Seq != 17 || tail[2].Seq != 19 {
		t.Errorf("replay=3 returned seqs %v, want [17 18 19]", seqs(tail))
	}
}

func seqs(evs []sseEvent) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

// TestHubConcurrentChurn exercises subscribe/unsubscribe/broadcast/close
// under the race detector.
func TestHubConcurrentChurn(t *testing.T) {
	h := NewHub(32, obs.NewRegistry())
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Emit(evalEvent(fmt.Sprintf("s%d", w), i))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub, backlog, ok := h.subscribe(fmt.Sprintf("s%d", w%2), i%8)
				if !ok {
					return // hub closed under us: fine
				}
				for range backlog {
				}
				// Drain a little, then detach.
				for j := 0; j < 5; j++ {
					select {
					case <-sub.ch:
					default:
					}
				}
				h.unsubscribe(sub)
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	h.Close()
	h.Close()                    // idempotent
	h.Emit(evalEvent("late", 0)) // no-op after close, must not panic
}

// TestHubSSEFraming round-trips events through a real HTTP connection and
// checks the SSE wire format: id: carries the sequence, data: carries the
// event JSON, replay arrives before live events.
func TestHubSSEFraming(t *testing.T) {
	h := NewHub(64, nil)
	defer h.Close()
	for i := 0; i < 3; i++ {
		h.Emit(evalEvent("A", i))
	}

	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/?session=A&replay=10", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// A live event emitted after connect must arrive after the replay.
	h.Emit(evalEvent("A", 3))
	h.Emit(evalEvent("B", 99)) // filtered out

	type msg struct {
		id uint64
		ev search.Event
	}
	got := make([]msg, 0, 4)
	sc := bufio.NewScanner(resp.Body)
	var cur msg
	for sc.Scan() && len(got) < 4 {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.ev); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			got = append(got, cur)
		}
	}
	if len(got) != 4 {
		t.Fatalf("read %d SSE messages, want 4 (scan err: %v)", len(got), sc.Err())
	}
	for i, m := range got {
		if m.ev.Session != "A" {
			t.Errorf("message %d leaked session %q through the filter", i, m.ev.Session)
		}
		if m.ev.Index != i {
			t.Errorf("message %d has eval index %d, want %d (replay must precede live)", i, m.ev.Index, i)
		}
		if i > 0 && got[i].id <= got[i-1].id {
			t.Errorf("SSE ids not increasing: %d then %d", got[i-1].id, got[i].id)
		}
	}
}

// TestHubSSEBadReplayParam rejects garbage without opening a stream.
func TestHubSSEBadReplayParam(t *testing.T) {
	h := NewHub(8, nil)
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/?replay=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replay=banana => %d, want 400", resp.StatusCode)
	}
}

// TestHubCloseEndsStreams: a blocked SSE handler returns when the hub
// closes (daemon shutdown must not strand handler goroutines).
func TestHubCloseEndsStreams(t *testing.T) {
	h := NewHub(8, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the handler reach its select
	h.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not end on hub close")
	}
}
