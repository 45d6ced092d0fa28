package webservice

import (
	"math"
	"testing"

	"harmony/internal/stats"
)

func TestSchedulerOrdersEvents(t *testing.T) {
	var s scheduler
	s.schedule(3, evIssue, 3)
	s.schedule(1, evIssue, 1)
	s.schedule(2, evIssue, 2)
	var order []int32
	for {
		ev, ok := s.next()
		if !ok {
			break
		}
		order = append(order, ev.browser)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", order)
	}
}

func TestSchedulerTieBreaksBySequence(t *testing.T) {
	var s scheduler
	s.schedule(1, evIssue, 10)
	s.schedule(1, evDone, 20)
	e1, _ := s.next()
	e2, _ := s.next()
	if e1.browser != 10 || e1.kind != evIssue || e2.browser != 20 || e2.kind != evDone {
		t.Error("simultaneous events not delivered in schedule order")
	}
}

func TestSchedulerClampsNegativeDelay(t *testing.T) {
	var s scheduler
	s.schedule(5, evIssue, 0)
	s.next() // now = 5
	s.schedule(-3, evIssue, 0)
	ev, _ := s.next()
	if ev.at != 5 {
		t.Errorf("negative delay scheduled at %v, want clamped to now (5)", ev.at)
	}
}

// TestSchedulerMatchesReferenceOrder interleaves schedules and pops at
// random and checks every pop against a linear scan for the least pending
// (at, seq). The delays cover the calendar's edges: many equal times and
// some negative delays, delays of one or more whole revolutions (5, 17.3
// and 100 s against a 4-s revolution), bursts of equal times on both sides
// of a bucket boundary, and sparse stretches in which one far event is the
// only one pending, so the pop has to jump across empty revolutions.
func TestSchedulerMatchesReferenceOrder(t *testing.T) {
	rng := stats.NewRNG(11)
	delays := []float64{-1, 0, 0, 0.5, 1, 1, 2, 3.25, 5, 17.3, 100}
	far := []float64{5, 17.3, 100}
	var s scheduler
	var pending []event
	id := int32(0)
	push := func(d float64) {
		id++
		s.schedule(d, eventKind(rng.Intn(4)), int(id))
		pending = append(pending, event{at: s.now + max(d, 0), seq: s.seq, browser: id})
	}
	popped := 0
	pop := func() {
		t.Helper()
		least := 0
		for i, ev := range pending {
			if l := pending[least]; ev.at < l.at || ev.at == l.at && ev.seq < l.seq {
				least = i
			}
		}
		want := pending[least]
		pending = append(pending[:least], pending[least+1:]...)
		got, ok := s.next()
		if !ok || got.browser != want.browser || got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d = %+v (ok=%v), want %+v", popped, got, ok, want)
		}
		if s.now != want.at {
			t.Fatalf("clock = %v after popping an event at %v", s.now, want.at)
		}
		popped++
	}

	bursts, sparse := 0, 0
	for round := 0; round < 10; round++ {
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				// A burst of equal times just below and exactly on a
				// bucket boundary, interleaved in schedule order.
				edge := (math.Floor(s.now*calPerSecond) + 1 + float64(rng.Intn(3))) / calPerSecond
				for k := 0; k < 6; k++ {
					push(edge - s.now - float64(k%2)/(16*calPerSecond))
				}
				bursts++
			case len(pending) == 0 || r < 12:
				push(delays[rng.Intn(len(delays))])
			default:
				pop()
			}
		}
		for len(pending) > 0 {
			pop()
		}
		for k := 0; k < 3; k++ {
			push(far[rng.Intn(len(far))])
			pop()
			sparse++
		}
	}
	if _, ok := s.next(); ok {
		t.Fatal("scheduler popped more events than were scheduled")
	}
	if popped < 10000 || bursts < 100 || sparse < 30 {
		t.Fatalf("exercised only %d pops, %d boundary bursts and %d sparse pops", popped, bursts, sparse)
	}
}

func TestStationServiceAndQueueing(t *testing.T) {
	st := newStation(2, 1, 10)

	adm, started := st.offer(0, 1)
	if !adm || !started {
		t.Fatal("first offer should start immediately")
	}
	adm, started = st.offer(0, 2)
	if !adm || !started {
		t.Fatal("second offer should start immediately (2 servers)")
	}
	adm, started = st.offer(0, 3)
	if !adm || started {
		t.Fatal("third offer should queue")
	}
	adm, _ = st.offer(0, 4)
	if adm {
		t.Fatal("fourth offer should be dropped (queue cap 1)")
	}

	next, ok := st.release(1)
	if !ok || next != 3 {
		t.Fatal("release should hand the queued request to the freed server")
	}
	if _, ok := st.release(2); ok {
		t.Fatal("release with empty queue should return no request")
	}
}

// TestStationQueueIsFIFO drives a one-server station's queue through
// wraparound and growth of its ring, checking that queued browsers start
// in arrival order.
func TestStationQueueIsFIFO(t *testing.T) {
	for _, c := range []struct {
		name            string
		queueCap, depth int
	}{
		{"bounded", 5, 100},  // ring sized to the cap: wraps, never grows
		{"unbounded", -1, 2}, // ring starts small: wraps and grows
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := stats.NewRNG(5)
			st := newStation(1, c.queueCap, c.depth)
			st.offer(0, -1) // occupy the server
			var want []int
			next := 0
			for step := 0; step < 5000; step++ {
				if rng.Intn(2) == 0 {
					adm, _ := st.offer(0, next)
					if full := c.queueCap >= 0 && len(want) == c.queueCap; adm == full {
						t.Fatalf("step %d: admitted=%v with %d queued", step, adm, len(want))
					}
					if adm {
						want = append(want, next)
					}
					next++
					continue
				}
				b, ok := st.release(0)
				if ok != (len(want) > 0) {
					t.Fatalf("step %d: release ok=%v with %d queued", step, ok, len(want))
				}
				if !ok {
					st.offer(0, -1) // the server went idle; occupy it again
					continue
				}
				if b != want[0] {
					t.Fatalf("step %d: started browser %d, want %d", step, b, want[0])
				}
				want = want[1:]
			}
			if c.queueCap < 0 && len(st.ring) <= c.depth {
				t.Errorf("unbounded ring never grew past its initial %d slots", c.depth)
			}
			if c.queueCap >= 0 && len(st.ring) != c.queueCap {
				t.Errorf("bounded ring has %d slots, want its cap %d", len(st.ring), c.queueCap)
			}
		})
	}
}

func TestStationUnboundedQueue(t *testing.T) {
	st := newStation(1, -1, 0)
	st.offer(0, 0)
	for i := 1; i <= 1000; i++ {
		adm, _ := st.offer(0, i)
		if !adm {
			t.Fatal("unbounded queue rejected an arrival")
		}
	}
	for i := 1; i <= 1000; i++ {
		if b, ok := st.release(0); !ok || b != i {
			t.Fatalf("release %d = (%d, %v), want (%d, true)", i, b, ok, i)
		}
	}
}

func TestStationClampsServers(t *testing.T) {
	st := newStation(0, 0, 0)
	if st.servers != 1 {
		t.Errorf("servers = %d, want clamped to 1", st.servers)
	}
}

func TestStationUtilization(t *testing.T) {
	st := newStation(1, 0, 0)
	st.offer(0, 0) // busy from t=0
	st.release(10) // idle from t=10
	st.stamp(20)   // horizon 20
	if got := st.utilization(20); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	if got := st.utilization(0); got != 0 {
		t.Errorf("utilization over zero horizon = %v, want 0", got)
	}
}

// BenchmarkScheduler measures one schedule and one pop at the simulator's
// steady state: about 140 pending events, one in four a think pause
// (exponential, mean 1 s) and the rest service hops (exponential, mean
// 50 ms). The delays are drawn before the timer starts.
func BenchmarkScheduler(b *testing.B) {
	const pendingEvents = 140
	rng := stats.NewRNG(1)
	delays := make([]float64, 4096)
	for i := range delays {
		if i%4 == 0 {
			delays[i] = rng.Exp(1)
		} else {
			delays[i] = rng.Exp(0.05)
		}
	}
	var s scheduler
	s.reserve(pendingEvents)
	for i := 0; i < pendingEvents; i++ {
		s.schedule(delays[i], evIssue, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, _ := s.next()
		s.schedule(delays[i&(len(delays)-1)], evDone, int(ev.browser))
	}
}
