// Package webservice simulates the paper's cluster-based web service system
// (§6, Appendix A): a three-tier pipeline of proxy cache (Squid), HTTP and
// application server (Tomcat), and database server (MySQL), driven by
// TPC-W emulated browsers and measured in Web Interactions Per Second.
//
// The paper ran the real stack on a ten-machine cluster; we substitute a
// deterministic discrete-event queueing simulation exposing the same ten
// tunable parameters the paper's Figure 8 prioritizes. The simulator
// reproduces the qualitative response surface the paper describes:
//
//   - interior optima ("allowing only one process will make the system
//     inefficient; allowing too many processes will cause thrashing", §4.1),
//   - workload-dependent parameter importance (database parameters dominate
//     under the ordering mix, proxy-cache parameters under shopping, §6.2),
//   - run-to-run measurement noise from the stochastic request stream.
//
// The file engine.go holds the generic discrete-event machinery: an event
// heap and bounded-queue multi-server stations. Neither allocates after a
// run starts: an event names a browser, not a request object (each browser
// owns one request slot, see simulation.reqs), the heap is sized once per
// run and station queues are ring buffers of browser indices.
package webservice

// eventKind discriminates simulation events.
type eventKind uint8

const (
	evIssue   eventKind = iota // an emulated browser issues its next request
	evDone                     // a station finished serving a browser's request
	evDrain                    // the database delayed-write queue drains one slot
	evTimeout                  // a dropped request's browser gives up waiting
)

// event is one scheduled occurrence. It is pointer-free, so the heap moves
// whole events with plain copies and the GC never scans it.
type event struct {
	at      float64
	seq     int32 // tie-breaker for deterministic ordering
	browser int32 // whose request the event concerns; unused by evDrain
	kind    eventKind
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// scheduler owns the clock and event queue: a hand-rolled 4-ary min-heap
// of events ordered by (at, seq). The simulation schedules one event per
// request hop, so this is the hottest path of every measurement. Because
// seq is unique the order is total, so the popped sequence — and therefore
// every simulation result — is identical to any other correct priority
// queue's, whatever the heap's layout or growth.
type scheduler struct {
	now    float64
	events []event
	seq    int32
}

func (s *scheduler) schedule(delay float64, kind eventKind, browser int) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	ev := event{at: s.now + delay, seq: s.seq, browser: int32(browser), kind: kind}

	// Sift up: move parents down into the hole until ev fits.
	events := append(s.events, ev)
	i := len(events) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&events[p]) {
			break
		}
		events[i] = events[p]
		i = p
	}
	events[i] = ev
	s.events = events
}

func (s *scheduler) next() (event, bool) {
	events := s.events
	if len(events) == 0 {
		return event{}, false
	}
	top := events[0]
	n := len(events) - 1
	last := events[n]
	events = events[:n]

	// Sift down (4-ary: shallower trees mean fewer moves per pop): move
	// the least child up into the hole until last fits.
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if events[j].before(&events[m]) {
				m = j
			}
		}
		if !events[m].before(&last) {
			break
		}
		events[i] = events[m]
		i = m
	}
	if n > 0 {
		events[i] = last
	}
	s.events = events
	s.now = top.at
	return top, true
}

// station is a multi-server queueing station with a bounded FIFO queue of
// waiting browsers. Service times are chosen by the caller at dispatch
// time, so they can depend on instantaneous load (thrashing, lock
// contention).
type station struct {
	servers  int
	queueCap int
	busy     int
	// ring holds the queued browsers in arrival order, head first.
	ring   []int32
	head   int
	queued int
	// busyTime accumulates server-seconds for utilization reporting.
	busyTime  float64
	lastStamp float64
}

// newStation builds a station; servers is clamped to at least 1 and a
// negative queueCap means unbounded. The queue is sized for depth waiting
// browsers (capped at queueCap) and grows only past that.
func newStation(servers, queueCap, depth int) station {
	if servers < 1 {
		servers = 1
	}
	if queueCap >= 0 && queueCap < depth {
		depth = queueCap
	}
	return station{servers: servers, queueCap: queueCap, ring: make([]int32, depth)}
}

// stamp updates the utilization integral up to time now.
func (st *station) stamp(now float64) {
	st.busyTime += float64(st.busy) * (now - st.lastStamp)
	st.lastStamp = now
}

// offer presents browser b's request to the station. It returns:
//
//	admitted == true, started == true  — a server was free, serve now
//	admitted == true, started == false — queued
//	admitted == false                  — queue full, dropped
func (st *station) offer(now float64, b int) (admitted, started bool) {
	st.stamp(now)
	if st.busy < st.servers {
		st.busy++
		return true, true
	}
	if st.queueCap >= 0 && st.queued >= st.queueCap {
		return false, false
	}
	if st.queued == len(st.ring) {
		// Full ring: unroll it into one twice the size.
		grown := make([]int32, max(2*len(st.ring), 4))
		k := copy(grown, st.ring[st.head:])
		copy(grown[k:], st.ring[:st.head])
		st.ring, st.head = grown, 0
	}
	tail := st.head + st.queued
	if tail >= len(st.ring) {
		tail -= len(st.ring)
	}
	st.ring[tail] = int32(b)
	st.queued++
	return true, false
}

// release frees a server and starts the next queued browser's request, if
// any, returning that browser.
func (st *station) release(now float64) (int, bool) {
	st.stamp(now)
	st.busy--
	if st.queued == 0 {
		return 0, false
	}
	b := st.ring[st.head]
	st.head++
	if st.head == len(st.ring) {
		st.head = 0
	}
	st.queued--
	st.busy++
	return int(b), true
}

// utilization returns mean busy servers over the horizon.
func (st *station) utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return st.busyTime / horizon / float64(st.servers)
}
