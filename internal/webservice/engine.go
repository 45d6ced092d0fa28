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
// The file engine.go holds the generic discrete-event machinery: a
// calendar-queue event scheduler and bounded-queue multi-server stations.
// Neither allocates after a run starts: an event names a browser, not a
// request object (each browser owns one request slot, see simulation.reqs),
// the scheduler's node slab is sized once per run and station queues are
// ring buffers of browser indices.
package webservice

import "math"

// eventKind discriminates simulation events.
type eventKind uint8

const (
	evIssue   eventKind = iota // an emulated browser issues its next request
	evDone                     // a station finished serving a browser's request
	evDrain                    // the database delayed-write queue drains one slot
	evTimeout                  // a dropped request's browser gives up waiting
)

// event is one scheduled occurrence. It is pointer-free, so the scheduler
// moves whole events with plain copies and the GC never scans them.
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

// The calendar: calBuckets buckets, each 1/calPerSecond simulated seconds
// wide, so one revolution spans calBuckets/calPerSecond = 4 s. A run keeps
// about one pending event per browser (about 140), spread over think
// pauses of about a second and service hops of milliseconds, so a bucket
// holds a few events at most. Buckets of 1/128 and 1/512 s, and 2,048 or
// 4,096 buckets, measured no faster.
const (
	calBuckets   = 1024 // a power of two
	calPerSecond = 256
)

// tickOf is the calendar tick an event at time at falls in. It is monotone
// in at, so ordering by tick first and (at, seq) within a tick is the
// (at, seq) order.
func tickOf(at float64) int64 { return int64(at * calPerSecond) }

// node is one slot of the scheduler's slab: a pending event linked into
// its bucket's list, or a free slot linked into the free list.
type node struct {
	ev   event
	next int32 // the next node in the same list; 0 ends it
}

// scheduler owns the clock and the event queue, a calendar queue (Brown,
// CACM 1988) of events ordered by (at, seq). An event goes into bucket
// tickOf(at) mod calBuckets, an unsorted list threaded through the node
// slab. A pop scans the current tick's bucket for the least (at, seq)
// among the entries of that tick, skipping entries a revolution or more
// ahead; an empty tick advances the clock's tick, and a whole empty
// revolution jumps straight to the least pending tick. No event is ever
// scheduled before the current tick (delays are clamped to >= 0 and the
// clock is the last popped event's time), and seq is unique, so the order
// is total and the popped sequence — and therefore every simulation
// result — is identical to any other correct priority queue's. Both
// insert and pop take constant time for the simulator's event set; the
// simulation schedules one event per request hop, so this is the hottest
// path of every measurement.
//
// Node index 0 is a sentinel, so a zero heads entry or free link means
// "none" and the zero scheduler is ready to use; reserve presizes its
// slab.
type scheduler struct {
	now     float64
	seq     int32
	tick    int64             // the current tick; no pending event lies before it
	pending int               // events scheduled and not yet popped
	heads   [calBuckets]int32 // first node of each bucket's list
	nodes   []node            // the slab; nodes[0] is the sentinel
	free    int32             // first free node
}

// reserve sizes a new scheduler's slab for n pending events, so that
// scheduling up to n of them at once never allocates.
func (s *scheduler) reserve(n int) {
	s.nodes = make([]node, 1, n+1)
}

func (s *scheduler) schedule(delay float64, kind eventKind, browser int) {
	if delay < 0 {
		delay = 0
	}
	if s.nodes == nil {
		s.reserve(0)
	}
	s.seq++
	i := s.free
	if i != 0 {
		s.free = s.nodes[i].next
	} else {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{})
	}
	at := s.now + delay
	head := &s.heads[tickOf(at)&(calBuckets-1)]
	s.nodes[i] = node{ev: event{at: at, seq: s.seq, browser: int32(browser), kind: kind}, next: *head}
	*head = i
	s.pending++
}

func (s *scheduler) next() (event, bool) {
	if s.pending == 0 {
		return event{}, false
	}
	for empty := 0; ; empty++ {
		if empty == calBuckets {
			s.tick, empty = s.leastTick(), 0
		}
		// Find the link to the least event of this tick in its bucket.
		var least *int32
		for link := &s.heads[s.tick&(calBuckets-1)]; *link != 0; link = &s.nodes[*link].next {
			ev := &s.nodes[*link].ev
			if tickOf(ev.at) == s.tick && (least == nil || ev.before(&s.nodes[*least].ev)) {
				least = link
			}
		}
		if least == nil {
			s.tick++
			continue
		}
		i := *least
		nd := &s.nodes[i]
		*least = nd.next
		nd.next = s.free
		s.free = i
		s.pending--
		s.now = nd.ev.at
		return nd.ev, true
	}
}

// leastTick returns the least tick of any pending event.
func (s *scheduler) leastTick() int64 {
	least := int64(math.MaxInt64)
	for _, i := range &s.heads {
		for ; i != 0; i = s.nodes[i].next {
			least = min(least, tickOf(s.nodes[i].ev.at))
		}
	}
	return least
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
