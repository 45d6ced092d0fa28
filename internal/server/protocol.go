// Package server implements the Active Harmony tuning server and its client
// library (§2 of the paper: applications "become tunable by applying minimal
// changes to the application and library source code" — they register their
// tunable parameters with a tuning server, repeatedly fetch candidate
// configurations, and report observed performance).
//
// The wire protocol is line-delimited JSON over TCP. One connection hosts
// one tuning session. In the original lockstep exchange (protocol v1) the
// client never has more than one configuration in flight:
//
//	C→S  {"op":"register","rsl":"{ harmonyBundle ... }","direction":"max"}
//	S→C  {"op":"registered","names":["B","C"]}
//	C→S  {"op":"fetch"}
//	S→C  {"op":"config","values":[3,4]}          (measure this)
//	C→S  {"op":"report","perf":63.2}
//	S→C  {"op":"ok"}
//	... fetch/report repeats ...
//	C→S  {"op":"fetch"}
//	S→C  {"op":"best","values":[4,5],"perf":80.1,"evals":57}
//
// # Pipelined exchange (protocol v2)
//
// A client that can measure several configurations concurrently declares a
// pipeline window W at registration. The server then holds up to W
// outstanding configurations, each stamped with a correlation id, and
// accepts reports out of order, keyed by id. Fetches are credits: the
// client may pipeline several before any report, and the server answers
// each as soon as the kernel has a point ready (reports are not
// acknowledged in v2 — the next config is the flow control):
//
//	C→S  {"op":"register","rsl":"...","window":4}
//	S→C  {"op":"registered","names":["B","C"],"window":4}   (granted ≤ requested)
//	C→S  {"op":"fetch"}                          (a credit)
//	C→S  {"op":"fetch"}
//	S→C  {"op":"config","id":0,"values":[3,4]}
//	S→C  {"op":"config","id":1,"values":[5,4]}
//	C→S  {"op":"report","id":1,"perf":70.5}      (out of order is fine)
//	C→S  {"op":"fetch"}
//	S→C  {"op":"config","id":2,"values":[5,6]}
//	C→S  {"op":"report","id":0,"perf":63.2}
//	... fetch credits and id-keyed reports interleave ...
//	S→C  {"op":"best","values":[4,5],"perf":80.1,"evals":57}
//
// The correlation id is written whenever a message carries one, so id 0
// still encodes (a plain int with omitempty would drop it). A registration
// without "window" (or with window 1) selects the lockstep v1 exchange,
// whose bytes remain identical to prior releases; a v2 reply only
// carries "window" when the granted window exceeds 1, so v1 clients never
// see v2 fields.
//
// # Binary framing (protocol v3)
//
// A client may open the connection with the 4-byte preamble 0x00 'H' 'M'
// '3' to switch the whole conversation to length-prefixed binary frames
// (see wire.go for the layout). The message vocabulary is unchanged — the
// same ops, the same lockstep-or-pipelined session semantics selected by
// the registered window — but hot-path frames (fetch/config/report)
// encode and decode without JSON or allocation, and reports are not
// acknowledged (as in v2, the next config is the flow control), so a
// lockstep client coalesces report+fetch into one socket write. A
// connection that starts with '{' speaks the JSON framing exactly as
// before: v1/v2 bytes are pinned.
//
// Parameter restriction (Appendix B) is handled server-side: for a
// restricted specification the server searches normalized coordinates and
// always sends feasible decoded configurations to the client.
package server

// message is the single wire envelope for both directions. Its JSON tags
// are the envelope schema: field order and omitempty rules as encoding/json
// applies them, which the hand-written codec in envelope.go reproduces
// byte for byte.
type message struct {
	Op string `json:"op"`

	// register
	RSL       string `json:"rsl,omitempty"`
	Direction string `json:"direction,omitempty"` // "max" (default) or "min"
	MaxEvals  int    `json:"maxEvals,omitempty"`
	Improved  bool   `json:"improved,omitempty"`
	// App names the application; sessions of the same App with the same
	// parameter specification share the server's experience database.
	App string `json:"app,omitempty"`
	// Characteristics describes the workload the application is currently
	// serving (e.g. interaction frequencies). When present, the server's
	// data analyzer matches it against prior sessions and warm-starts the
	// kernel from the closest experience (§4.2).
	Characteristics []float64 `json:"characteristics,omitempty"`

	// Window (protocol v2) is the pipeline depth. On register it is the
	// client-declared maximum number of outstanding configurations; on
	// registered it is the depth the server granted. Absent means 1 — the
	// lockstep v1 exchange.
	Window int `json:"window,omitempty"`

	// Mux (v4-mux) asks the server to multiplex many sessions over this
	// connection. It is legal only on a v3 connection's first (negotiation)
	// register envelope: when the server accepts, every subsequent frame in
	// both directions carries a varint session token after the opcode, and
	// further register envelopes attach additional sessions. Absent keeps
	// the un-muxed v3 exchange byte-identical.
	Mux bool `json:"mux,omitempty"`

	// registered
	Names []string `json:"names,omitempty"`
	// Warm reports whether a prior experience seeded this session.
	Warm bool `json:"warm,omitempty"`

	// config / best
	Values []int   `json:"values,omitempty"`
	Perf   float64 `json:"perf,omitempty"`
	Evals  int     `json:"evals,omitempty"`

	// Fidelity (multi-fidelity search) is the measurement fidelity the
	// server requests on a config and the client echoes back on the
	// matching report: f ∈ (0, 1) asks for a deterministically cheaper,
	// noisier measurement over that fraction of the full horizon. Absent
	// or 0 pins full fidelity — protocol v1 clients never see the field
	// and always measure in full — so single-fidelity exchanges stay
	// byte-identical on every framing.
	Fidelity float64 `json:"fidelity,omitempty"`

	// error
	Msg string `json:"msg,omitempty"`

	// id/hasID (protocol v2) correlate a config with its out-of-order
	// report. On the JSON envelope they are the "id" key, written between
	// "warm" and "values" whenever hasID is set, so id 0 still encodes;
	// lockstep v1 messages leave hasID unset and stay byte-identical. The
	// envelope codec (envelope.go) reads and writes them directly; only its
	// json.Unmarshal fallback decodes through a *int.
	id    int
	hasID bool

	// sess/hasSess are the v4-mux session token, purely transport state: on
	// a mux connection the frame writer emits sess after the opcode and the
	// frame reader fills both from the incoming token. They never appear in
	// a JSON envelope — the token lives in the frame, not the message.
	sess    uint64
	hasSess bool
}
