package search

import (
	"encoding/json"
	"strconv"
	"time"
)

// EventType classifies the typed events a Tracer receives. The set covers
// everything the paper's trajectory claims depend on — evaluations, simplex
// operations and convergence decisions — plus the
// server-side events (failure-budget charges, phase markers) that share the
// same stream so one JSONL file reconstructs a whole session.
type EventType string

const (
	// EventEval is one configuration exploration: a real measurement
	// (Cached=false, Index = exploration order) or a cache hit
	// (Cached=true, Index = -1).
	EventEval EventType = "eval"
	// EventSimplex is one Nelder–Mead operation; Op is one of "reflect",
	// "expand", "contract_out", "contract_in" or "shrink".
	EventSimplex EventType = "simplex"
	// EventConverge is a kernel termination decision; Op is the reason:
	// "reltol", "stall", "confirmed" (a run whose start confirmed its
	// prior reached its first failed contraction; see
	// NelderMeadOptions.PriorBest), "budget" or "init_budget".
	EventConverge EventType = "converge"
	// EventPhase marks a stage boundary (Op = "training", "live",
	// "restart", "polish", ...). Emitted by the Tuner and the restart
	// driver; the server emits "retune" before each re-tune simplex it
	// runs after the kernel returns.
	EventPhase EventType = "phase"
	// EventBudget is a failure-budget charge against a session (server
	// side): Iter carries the fault count, Note describes the fault.
	EventBudget EventType = "budget"
	// EventRung marks multi-fidelity scheduler progress (mfsearch): Op is
	// "open" when a rung starts evaluating its candidates and "promote"
	// when the survivors are selected; Iter is the rung index within the
	// bracket, Fidelity the rung's measurement fidelity, and Note carries
	// bracket/candidate/survivor counts.
	EventRung EventType = "rung"
	// EventDrift marks workload-drift detector decisions (server side): Op
	// is "detect" when the live characteristic vector crosses the
	// hysteresis threshold away from the session's matched centroid and
	// "rematch" when the classifier is re-run against the new live vector
	// after the warm re-tune. Iter is the drift ordinal within the session,
	// Dist the triggering (squared-error) distance, and Note carries detail
	// (the rematched experience label, ...). Stationary sessions never emit
	// one, so their streams stay byte-identical with detection enabled.
	EventDrift EventType = "drift"
)

// Simplex operation names used in EventSimplex events.
const (
	OpReflect     = "reflect"
	OpExpand      = "expand"
	OpContractOut = "contract_out"
	OpContractIn  = "contract_in"
	OpShrink      = "shrink"
)

// Event is one structured observation of the tuning machinery. Fields not
// meaningful for a given Type stay at their zero values and are omitted
// from JSON encodings.
type Event struct {
	// Session identifies the tuning session the event belongs to (filled
	// by StampSession on shared sinks; empty for single-session tracers).
	Session string `json:"session,omitempty"`
	// Time is the emission time; the nil-safe emit helper fills it when
	// the producer left it zero.
	Time time.Time `json:"t"`
	Type EventType `json:"type"`
	// Op refines the event: the simplex operation, the convergence reason,
	// or the phase name.
	Op string `json:"op,omitempty"`
	// Iter is the simplex iteration (EventSimplex), the restart ordinal
	// (EventPhase "restart") or the fault count (EventBudget).
	Iter int `json:"iter,omitempty"`
	// Index is the 0-based exploration order for fresh measurements and -1
	// for cache hits.
	Index int `json:"index,omitempty"`
	// Config is the configuration measured or seeded.
	Config Config `json:"config,omitempty"`
	// Perf is the observed (or seeded, or probe) performance.
	Perf float64 `json:"perf,omitempty"`
	// Cached reports a cache hit (EventEval only).
	Cached bool `json:"cached,omitempty"`
	// Estimated reports that a committed evaluation's Perf came from the
	// measure-once layer's estimation gate (§4.3) rather than a real
	// measurement (EventEval only). Never set in exact-only cache mode, so
	// the field's omitempty keeps exact-mode streams byte-identical to
	// uncached ones.
	Estimated bool `json:"estimated,omitempty"`
	// Fidelity is the measurement fidelity of an evaluation or rung event.
	// Zero means full fidelity (the single-fidelity world never sets it),
	// so omitempty keeps exact-mode streams byte-identical when the
	// multi-fidelity scheduler is off.
	Fidelity float64 `json:"fidelity,omitempty"`
	// Dist is the characteristic-vector distance of an EventDrift (the
	// squared error between the live EWMA vector and the matched centroid
	// at the moment of the decision). Zero elsewhere; omitempty keeps every
	// other stream unchanged.
	Dist float64 `json:"dist,omitempty"`
	// Note carries free-form detail (which vertex a simplex op replaced,
	// the fault description for budget charges, ...).
	Note string `json:"note,omitempty"`
	// Detail is a note in one of the kernels' fixed layouts, carried as
	// typed fields so that emitting it formats nothing. A sink that writes
	// the event out formats it as the note (see NoteText); the JSON
	// encoding does so itself.
	Detail Note `json:"-"`
}

// NoteKind names a fixed note layout. Each kind's text lists which of
// Note's fields it formats.
type NoteKind uint8

const (
	// NoteNone: no typed note.
	NoteNone NoteKind = iota
	// NoteConverge: "evals=A stall=C", with "pbest=B " before "stall"
	// when B > 1 and " prior-confirmed" after it when Flag is set.
	NoteConverge
	// NoteShrink: "re-measured A vertices".
	NoteShrink
	// NoteVertexAccepted: "vertex A accepted".
	NoteVertexAccepted
	// NoteVertexRejected: "vertex A rejected".
	NoteVertexRejected
	// NotePolish: "remaining=A frac=F", F the polish phase's scale.
	NotePolish
	// NoteRungOpen: "bracket=A candidates=B".
	NoteRungOpen
	// NoteRungPromote: "bracket=A survivors=B".
	NoteRungPromote
	// NoteTriage: "seeds=A budget_hit=Flag".
	NoteTriage
)

// Note is a typed event note: a layout and the values it formats. It is
// kept to 16 bytes, since every event carries one.
type Note struct {
	Kind    NoteKind
	Flag    bool
	A, B, C int32
}

// NoteText returns the event's note as a sink writes it: Note when set,
// otherwise the text of Detail ("" when there is neither).
func (e Event) NoteText() string {
	if e.Note != "" || e.Detail.Kind == NoteNone {
		return e.Note
	}
	return string(e.Detail.append(nil))
}

// append appends the note's text to b.
func (n Note) append(b []byte) []byte {
	num := func(b []byte, key string, v int32) []byte {
		return strconv.AppendInt(append(b, key...), int64(v), 10)
	}
	switch n.Kind {
	case NoteConverge:
		b = num(b, "evals=", n.A)
		if n.B > 1 {
			b = num(b, " pbest=", n.B)
		}
		b = num(b, " stall=", n.C)
		if n.Flag {
			b = append(b, " prior-confirmed"...)
		}
	case NoteShrink:
		b = append(num(b, "re-measured ", n.A), " vertices"...)
	case NoteVertexAccepted:
		b = append(num(b, "vertex ", n.A), " accepted"...)
	case NoteVertexRejected:
		b = append(num(b, "vertex ", n.A), " rejected"...)
	case NotePolish:
		b = append(num(b, "remaining=", n.A), " frac="...)
		b = strconv.AppendFloat(b, polishFrac, 'g', -1, 64)
	case NoteRungOpen:
		b = num(num(b, "bracket=", n.A), " candidates=", n.B)
	case NoteRungPromote:
		b = num(num(b, "bracket=", n.A), " survivors=", n.B)
	case NoteTriage:
		b = strconv.AppendBool(append(num(b, "seeds=", n.A), " budget_hit="...), n.Flag)
	}
	return b
}

// MarshalJSON encodes the event with its typed note formatted into the
// "note" field, so the JSON of an event carrying Detail is the JSON of the
// same event with its note text in Note.
func (e Event) MarshalJSON() ([]byte, error) {
	e.Note = e.NoteText()
	type plain Event // Event's fields without this method
	return json.Marshal(plain(e))
}

// Tracer receives typed events from the tuning machinery. Implementations
// used with a parallel evaluator do not need their own synchronization for
// ordering — the evaluator commits (and emits) in input order from a single
// goroutine — but a sink shared by several sessions must be safe for
// concurrent Emit calls (obs.JSONL is).
//
// Every emission site is nil-safe: a nil Tracer costs one branch, so
// un-instrumented library use pays ~zero.
type Tracer interface {
	Emit(Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Event)

// Emit calls f.
func (f TracerFunc) Emit(e Event) { f(e) }

// MultiTracer fans every event out to all non-nil tracers; it returns nil
// when none remain, so the nil-safe fast path is preserved.
func MultiTracer(ts ...Tracer) Tracer {
	live := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return TracerFunc(func(e Event) {
		for _, t := range live {
			t.Emit(e)
		}
	})
}

// StampSession wraps a tracer so every event carries the session ID —
// the convention that lets one shared sink (the server's -trace-out file)
// interleave many sessions and still be demultiplexed offline. A nil inner
// tracer yields nil.
func StampSession(t Tracer, session string) Tracer {
	if t == nil {
		return nil
	}
	return TracerFunc(func(e Event) {
		if e.Session == "" {
			e.Session = session
		}
		t.Emit(e)
	})
}

// emit is the nil-safe emission helper used by every instrumentation site:
// one branch when no tracer is installed, timestamping when there is one.
func emit(t Tracer, e Event) {
	if t == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.Emit(e)
}

// CollectTracer is an in-memory tracer for tests and examples: it appends
// every event to Events. Not safe for concurrent use across sessions.
type CollectTracer struct {
	Events []Event
}

// Emit implements Tracer.
func (c *CollectTracer) Emit(e Event) { c.Events = append(c.Events, e) }

// BestTrajectory folds an event stream into the best-so-far performance
// series of its committed explorations (cache hits and seeds excluded), in
// emission order. This is the offline reconstruction of the paper's
// convergence trajectory from a JSONL trace.
//
// Only real full-fidelity measurements may move the best: a gate estimate
// or a noisy low-fidelity triage observation contributes its point to the
// series but can never be claimed as best-so-far (mirroring Trace.Best and
// the server registry). Until the first real measurement exists such
// perfs stand in, and the first truth evicts them.
func BestTrajectory(events []Event, dir Direction) []float64 {
	var out []float64
	have := false      // any point at all
	haveTruth := false // best holds a real full-fidelity measurement
	best := 0.0
	for _, e := range events {
		if e.Type != EventEval || e.Cached {
			continue
		}
		truth := !e.Estimated && FullFidelity(e.Fidelity)
		switch {
		case truth && !haveTruth:
			best, haveTruth = e.Perf, true
		case truth && dir.Better(e.Perf, best):
			best = e.Perf
		case !truth && !haveTruth && (!have || dir.Better(e.Perf, best)):
			best = e.Perf
		}
		have = true
		out = append(out, best)
	}
	return out
}
