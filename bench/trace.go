package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed step of a session, as the spans file records it: the
// bench-side session index, the span's id and its parent's (0 for a
// session's root span), its name, and its start and end in nanoseconds
// since the timed phase began.
type span struct {
	Session int    `json:"session"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// traceLog is one worker's tracing state in a traced run: the dial,
// register and measure durations of every session and the summed session,
// exchange and measure time, plus the spans of every sampled session and how
// much of their wall time their child spans cover.
type traceLog struct {
	dial, register, measure []time.Duration
	wall, exch, meas        time.Duration
	covered, coveredWall    time.Duration
	spans                   []span
	kids                    []interval // scratch
}

// maxSpanSessions bounds the sessions whose spans a traced run keeps in
// memory and writes out.
const maxSpanSessions = 500

// traceSession folds one finished session (the round's i-th) into the
// worker's trace log. t holds the session's start, dial end, register end,
// close start and end.
func (r *runner) traceSession(i int, wk *worker, t [5]time.Time) {
	i += r.base
	tl := wk.tl
	var at [5]time.Duration
	for k := range t {
		at[k] = t[k].Sub(r.t0)
	}
	start, dialed, registered, closing, end := at[0], at[1], at[2], at[3], at[4]
	if !r.w.mux {
		tl.dial = append(tl.dial, dialed-start)
	}
	tl.register = append(tl.register, registered-dialed)
	tl.wall += end - start
	for _, e := range wk.ex {
		tl.exch += e.end - e.start
	}
	for _, e := range wk.tr {
		tl.meas += e.end - e.start
		tl.measure = append(tl.measure, e.end-e.start)
	}
	if i%r.sample != 0 {
		return
	}

	root := r.spanID.Add(1)
	tl.spans = append(tl.spans, span{Session: i, ID: root, Name: "session", Start: int64(start), End: int64(end)})
	tl.kids = tl.kids[:0]
	add := func(name string, iv interval) {
		tl.spans = append(tl.spans, span{Session: i, ID: r.spanID.Add(1), Parent: root, Name: name,
			Start: int64(iv.start), End: int64(iv.end)})
		tl.kids = append(tl.kids, iv)
	}
	if !r.w.mux {
		add("server.dial", interval{start, dialed})
	}
	add("server.register", interval{dialed, registered})
	for _, e := range wk.ex {
		add("server.exchange", e)
	}
	measure := "quadratic.measure"
	if r.w.web {
		measure = "webservice.measure"
	}
	for _, e := range wk.tr {
		add(measure, interval{e.start, e.end})
	}
	add("server.close", interval{closing, end})
	tl.covered += union(tl.kids)
	tl.coveredWall += end - start
}

// union is the total length of the intervals' union; it sorts ivs.
func union(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total time.Duration
	var cur interval
	for k, iv := range ivs {
		switch {
		case k == 0:
			cur = iv
		case iv.start > cur.end:
			total += cur.end - cur.start
			cur = iv
		case iv.end > cur.end:
			cur.end = iv.end
		}
	}
	if len(ivs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// writeSpans writes every kept span as one JSON line, ordered by id.
func writeSpans(path string, workers []*worker) error {
	var all []span
	for _, wk := range workers {
		all = append(all, wk.tl.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
