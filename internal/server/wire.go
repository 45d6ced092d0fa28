package server

// The wire layer: one transport interface over two framings.
//
// Protocols v1 and v2 share the line-oriented JSON framing (jsonWire) whose
// bytes are pinned by interop tests and must never change. Protocol v3
// (binWire) is a length-prefixed binary framing for the fetch/report hot
// path, negotiated per connection by a 4-byte preamble:
//
//	magic     := 0x00 'H' 'M' '3'            (a JSON line can never start with 0x00)
//	frame     := length uint32-LE | opcode byte | body
//	length    := len(opcode+body), 1 ≤ length ≤ 1 MiB (the same cap as JSON lines)
//
// Hot-path opcodes carry fixed binary bodies and encode/decode without
// allocating (the reader and writer own reusable scratch buffers; varints
// via binary.AppendUvarint):
//
//	fetch   (0x03)  empty
//	config  (0x04)  hasID byte | id uvarint | n uvarint | n × value varint
//	report  (0x05)  hasID byte | id uvarint | perf float64-LE-bits
//	ok      (0x06)  empty
//	quit    (0x09)  empty
//	error   (0x08)  raw UTF-8 message
//	configf (0x0A)  hasID byte | id uvarint | fidelity float64-LE-bits | n uvarint | n × value varint
//	reportf (0x0B)  hasID byte | id uvarint | fidelity float64-LE-bits | perf float64-LE-bits
//	reportc (0x0C)  hasID byte | id uvarint | fidelity float64-LE-bits | perf float64-LE-bits | n uvarint | n × char float64-LE-bits
//
// The fidelity-carrying variants exist only for multi-fidelity sessions: a
// config or report whose fidelity is absent, zero or one always uses the
// original opcode, so single-fidelity v3 byte streams are pinned unchanged.
// Likewise reportc exists only for sessions observing workload
// characteristics alongside their measurements (drift detection): a report
// without characteristics always uses 0x05/0x0B. Because the opcode is new,
// its fidelity field is carried unconditionally — 0 means full fidelity.
//
// Cold-path opcodes — register (0x01), registered (0x02), best (0x07) —
// wrap the JSON message envelope in a frame: they run once per session, and
// keeping them JSON means every field (RSL, characteristics, window, warm)
// rides along without a parallel binary schema. The envelope is encoded and
// decoded by the hand-written codec in envelope.go, byte-identical to the
// encoding/json output of earlier releases; json.Unmarshal decodes only an
// envelope outside the codec's canonical form.
//
// # Session multiplexing (v4-mux)
//
// A v3 connection whose first register envelope carries "mux":true becomes
// a multiplexed connection: from the next frame onward, in both directions,
// every frame carries a varint session token between the opcode and the
// payload:
//
//	mux frame := length uint32-LE | opcode byte | session uvarint | body
//
// The negotiation register itself is a plain v3 frame (the server has not
// agreed to mux yet when it reads it) and attaches session token 1; further
// register envelopes — now token-stamped — attach additional sessions with
// client-chosen tokens. Token 0 is reserved for connection-scope error
// frames (unknown tokens, malformed frames that name no session). Apart
// from the token, every frame is encoded exactly as on an un-muxed v3
// connection: a mux connection carrying a single session produces the
// identical frame sequence, token aside (and the "mux":true negotiation
// field on the register envelope itself).
//
// Unlike v1, v3 does not acknowledge reports (v2 never did): the next
// config is the flow control, which lets a lockstep client coalesce
// report+fetch into a single socket write and halves the syscalls per
// exchange.
//
// Decode errors are classified, not collapsed: a *garbageError means the
// stream is still in sync (the bad line or frame was consumed whole) and
// the session may charge a fault and continue; errFrameTooBig is an
// untrusted length claim, terminal on both framings; io.ErrUnexpectedEOF is
// a connection dying mid-frame.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// v3Magic is the per-connection preamble that selects binary framing. The
// leading zero byte is the discriminator: every v1/v2 exchange begins with
// a '{' JSON line, so the first byte of a connection cleanly separates the
// framings.
var v3Magic = [4]byte{0x00, 'H', 'M', '3'}

// maxFrame caps one wire unit on both framings: the JSON scanner's line
// buffer and the v3 frame length claim.
const maxFrame = 1 << 20

// v3 opcodes. The values are wire protocol: never renumber.
const (
	opRegister   = 0x01
	opRegistered = 0x02
	opFetch      = 0x03
	opConfig     = 0x04
	opReport     = 0x05
	opOK         = 0x06
	opBest       = 0x07
	opError      = 0x08
	opQuit       = 0x09
	opConfigF    = 0x0A // config with a fidelity request (multi-fidelity search)
	opReportF    = 0x0B // report echoing the measurement fidelity
	opReportC    = 0x0C // report carrying observed workload characteristics (drift detection)
)

// garbageError marks a tolerable decode problem: the offending line or
// frame was consumed whole, the stream is still in sync, and the session
// can charge its failure budget and continue. On a mux connection a
// garbage frame whose session token still parsed carries it (sess/hasSess),
// so the fault routes to that session's failure budget instead of the
// connection's.
type garbageError struct {
	reason  string
	sess    uint64
	hasSess bool
}

func (e *garbageError) Error() string { return e.reason }

// errFrameTooBig is a line or frame over the 1 MiB cap. A JSON stream
// cannot be resynchronized past it; a binary length claim that large is
// not worth trusting either. Terminal on both framings.
var errFrameTooBig = errors.New(oversizedMsg)

// transport abstracts one connection's message framing. recv blocks for
// the next message; its error is nil, a *garbageError (tolerable, in
// sync), io.EOF (clean close between messages), io.ErrUnexpectedEOF (death
// mid-frame), errFrameTooBig, or a fatal transport error. sendBatch queues
// several messages and flushes once: one socket write for a report+fetch
// exchange.
type transport interface {
	recv() (message, error)
	send(m message) error
	sendBatch(ms ...message) error
}

// jsonWire is the v1/v2 line-oriented JSON framing. Its bytes are pinned:
// the envelope codec writes exactly what encoding/json wrote for prior
// releases. Each line is encoded into a scratch buffer the wire keeps, so a
// send allocates nothing.
type jsonWire struct {
	sc          *bufio.Scanner
	w           *bufio.Writer
	beforeRead  func() // deadline hooks; nil means none
	beforeWrite func()
	scratch     []byte
}

func newJSONWire(r io.Reader, w *bufio.Writer, beforeRead, beforeWrite func()) *jsonWire {
	sc := bufio.NewScanner(r)
	// Start small — hot-path lines are tens of bytes — and let the scanner
	// grow on demand up to the 1 MiB cap. A large fixed buffer here costs
	// real zeroing time per connection at thousand-session scale.
	sc.Buffer(make([]byte, 4*1024), maxFrame)
	return &jsonWire{sc: sc, w: w, beforeRead: beforeRead, beforeWrite: beforeWrite}
}

func (t *jsonWire) recv() (message, error) {
	if t.beforeRead != nil {
		t.beforeRead()
	}
	if !t.sc.Scan() {
		err := t.sc.Err()
		switch {
		case err == nil:
			return message{}, io.EOF
		case errors.Is(err, bufio.ErrTooLong):
			return message{}, errFrameTooBig
		}
		return message{}, err
	}
	m, err := decode(t.sc.Bytes())
	if err != nil {
		return message{}, &garbageError{reason: err.Error()}
	}
	return m, nil
}

// line encodes m as one newline-terminated line in the scratch buffer.
func (t *jsonWire) line(m message) ([]byte, error) {
	b, err := appendMessage(t.scratch[:0], m)
	if err != nil {
		return nil, err
	}
	t.scratch = append(b, '\n')
	return t.scratch, nil
}

func (t *jsonWire) send(m message) error {
	b, err := t.line(m)
	if err != nil {
		return err
	}
	if t.beforeWrite != nil {
		t.beforeWrite()
	}
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	return t.w.Flush()
}

// sendBatch writes one line per message and flushes once. Lockstep v1
// acknowledges reports, so it never coalesces; pipelined TuneParallel over
// v2 JSON sends each report and its replenishing fetch this way.
func (t *jsonWire) sendBatch(ms ...message) error {
	if t.beforeWrite != nil {
		t.beforeWrite()
	}
	for _, m := range ms {
		b, err := t.line(m)
		if err != nil {
			return err
		}
		if _, err := t.w.Write(b); err != nil {
			return err
		}
	}
	return t.w.Flush()
}

// binWire is the v3 binary framing over a shared frame reader/writer pair.
type binWire struct {
	fr          frameReader
	fw          frameWriter
	beforeRead  func()
	beforeWrite func()
}

func newBinWire(r *bufio.Reader, w *bufio.Writer, beforeRead, beforeWrite func()) *binWire {
	return &binWire{
		fr:          frameReader{r: r},
		fw:          frameWriter{w: w},
		beforeRead:  beforeRead,
		beforeWrite: beforeWrite,
	}
}

func (t *binWire) recv() (message, error) {
	if t.beforeRead != nil {
		t.beforeRead()
	}
	return t.fr.read()
}

func (t *binWire) send(m message) error {
	if t.beforeWrite != nil {
		t.beforeWrite()
	}
	if err := t.fw.append(m); err != nil {
		return err
	}
	return t.fw.w.Flush()
}

func (t *binWire) sendBatch(ms ...message) error {
	if t.beforeWrite != nil {
		t.beforeWrite()
	}
	for _, m := range ms {
		if err := t.fw.append(m); err != nil {
			return err
		}
	}
	return t.fw.w.Flush()
}

// frameReader decodes v3 frames. The length header and the body are read
// into buffers the reader keeps (the body's grows to the largest frame
// seen), so reading a fetch, report or reportf frame allocates nothing.
// decode copies every value that outlives the call out of the body: a
// config frame's values, carved from the reader's slab (see carve), a
// reportc frame's characteristics, error strings and JSON envelopes. With
// mux set (a v4-mux connection, after the negotiation register) every frame
// carries a varint session token after the opcode, surfaced on
// message.sess.
type frameReader struct {
	r   *bufio.Reader
	hdr [4]byte
	buf []byte
	mux bool
	// slab is the unused tail of the block config-frame values are carved
	// from.
	slab []int
}

// valueSlab is how many config values one slab holds: 128 configurations
// of the two-parameter quadratic, 25 of the ten-parameter web cluster.
const valueSlab = 256

// carve returns room for n config values. The values are cut from the
// reader's slab, a new one once the last is used up, and their capacity
// ends at n: no two returned configurations share memory, appending to
// one reallocates it, and each stays valid after later reads.
func (fr *frameReader) carve(n int) []int {
	if len(fr.slab) < n {
		fr.slab = make([]int, max(n, valueSlab))
	}
	v := fr.slab[:n:n]
	fr.slab = fr.slab[n:]
	return v
}

func (fr *frameReader) read() (message, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return message{}, io.ErrUnexpectedEOF // died mid-header
		}
		return message{}, err // io.EOF between frames is a clean close
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n == 0 {
		// Nothing was consumed beyond the header: still in sync.
		return message{}, &garbageError{reason: "v3 frame with zero length"}
	}
	if n > maxFrame {
		return message{}, errFrameTooBig
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return message{}, io.ErrUnexpectedEOF // died mid-frame
		}
		return message{}, err
	}
	if !fr.mux {
		return fr.decode(body)
	}
	// Mux frame: opcode, session token, then the ordinary payload. The
	// token is sliced out in place — its last byte is overwritten with the
	// opcode so decode sees a contiguous opcode+payload view without a
	// copy — and stamped onto the decoded message (or, for payload garbage,
	// onto the error, so the fault charges the right session's budget).
	op := body[0]
	tok, k := binary.Uvarint(body[1:])
	if k <= 0 {
		return message{}, &garbageError{reason: "v4 mux frame: malformed session token"}
	}
	body[k] = op
	m, err := fr.decode(body[k:])
	if err != nil {
		var g *garbageError
		if errors.As(err, &g) {
			g.sess, g.hasSess = tok, true
		}
		return message{}, err
	}
	m.sess, m.hasSess = tok, true
	return m, nil
}

// decode parses one complete frame body (opcode + payload). All errors are
// *garbageError: the frame was already consumed, so the caller may tolerate
// and continue.
func (fr *frameReader) decode(body []byte) (message, error) {
	op, rest := body[0], body[1:]
	switch op {
	case opFetch, opOK, opQuit:
		if len(rest) != 0 {
			return message{}, &garbageError{reason: fmt.Sprintf("v3 opcode 0x%02x with unexpected %d-byte body", op, len(rest))}
		}
		switch op {
		case opFetch:
			return message{Op: "fetch"}, nil
		case opOK:
			return message{Op: "ok"}, nil
		}
		return message{Op: "quit"}, nil

	case opConfig, opConfigF:
		m := message{Op: "config"}
		rest, ok := decodeID(&m, rest)
		if !ok {
			return message{}, &garbageError{reason: "v3 config frame: malformed id"}
		}
		if op == opConfigF {
			if len(rest) < 8 {
				return message{}, &garbageError{reason: "v3 configf frame: missing fidelity"}
			}
			m.Fidelity = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
			if !fidelityOnWire(m.Fidelity) {
				return message{}, &garbageError{reason: "v3 configf frame: fidelity outside (0, 1)"}
			}
		}
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > uint64(len(rest)-k) {
			// Each value costs at least one byte, so a count beyond the
			// remaining bytes is a lie — reject before allocating.
			return message{}, &garbageError{reason: "v3 config frame: malformed value count"}
		}
		rest = rest[k:]
		vals := fr.carve(int(n))
		for i := range vals {
			v, k := binary.Varint(rest)
			if k <= 0 {
				return message{}, &garbageError{reason: "v3 config frame: malformed value"}
			}
			vals[i] = int(v)
			rest = rest[k:]
		}
		if len(rest) != 0 {
			return message{}, &garbageError{reason: "v3 config frame: trailing bytes"}
		}
		m.Values = vals
		return m, nil

	case opReport, opReportF:
		m := message{Op: "report"}
		rest, ok := decodeID(&m, rest)
		if !ok {
			return message{}, &garbageError{reason: "v3 report frame: malformed id"}
		}
		if op == opReportF {
			if len(rest) != 16 {
				return message{}, &garbageError{reason: "v3 reportf frame: bad body length"}
			}
			m.Fidelity = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
			if !fidelityOnWire(m.Fidelity) {
				return message{}, &garbageError{reason: "v3 reportf frame: fidelity outside (0, 1)"}
			}
		} else if len(rest) != 8 {
			return message{}, &garbageError{reason: "v3 report frame: bad perf length"}
		}
		m.Perf = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		return m, nil

	case opReportC:
		m := message{Op: "report"}
		rest, ok := decodeID(&m, rest)
		if !ok {
			return message{}, &garbageError{reason: "v3 reportc frame: malformed id"}
		}
		if len(rest) < 16 {
			return message{}, &garbageError{reason: "v3 reportc frame: bad body length"}
		}
		fid := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		if fid != 0 && !fidelityOnWire(fid) {
			return message{}, &garbageError{reason: "v3 reportc frame: fidelity outside [0, 1)"}
		}
		m.Fidelity = fid
		m.Perf = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		n, k := binary.Uvarint(rest)
		// Bound the count before multiplying (mirroring the config-frame
		// guard): each value costs 8 bytes, and a count past the remaining
		// bytes is a lie. Checking n*8 alone would let a huge n wrap around
		// 2^64 and pass, then panic in make below.
		if k <= 0 || n == 0 || n > uint64(len(rest)-k)/8 || n*8 != uint64(len(rest)-k) {
			return message{}, &garbageError{reason: "v3 reportc frame: malformed characteristics count"}
		}
		rest = rest[k:]
		chars := make([]float64, n)
		for i := range chars {
			chars[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		}
		m.Characteristics = chars
		return m, nil

	case opError:
		return message{Op: "error", Msg: string(rest)}, nil

	case opRegister, opRegistered, opBest:
		m, err := decode(rest)
		if err != nil {
			return message{}, &garbageError{reason: err.Error()}
		}
		var want string
		switch op {
		case opRegister:
			want = "register"
		case opRegistered:
			want = "registered"
		default:
			want = "best"
		}
		if m.Op != want {
			return message{}, &garbageError{reason: fmt.Sprintf("v3 opcode 0x%02x carries op %q, want %q", op, m.Op, want)}
		}
		return m, nil
	}
	return message{}, &garbageError{reason: fmt.Sprintf("unknown v3 opcode 0x%02x", op)}
}

// decodeID parses the hasID byte and optional uvarint id shared by config
// and report frames.
func decodeID(m *message, rest []byte) ([]byte, bool) {
	if len(rest) == 0 || rest[0] > 1 {
		return nil, false
	}
	has := rest[0] == 1
	rest = rest[1:]
	if !has {
		return rest, true
	}
	id, k := binary.Uvarint(rest)
	if k <= 0 || id > math.MaxInt32 {
		return nil, false
	}
	m.id, m.hasID = int(id), true
	return rest[k:], true
}

// frameWriter encodes v3 frames into a reusable scratch buffer before
// committing header+body to the bufio.Writer, so steady-state hot-path
// sends (config, report, fetch) allocate nothing. With mux set every frame
// carries message.sess as a varint session token after the opcode; unset,
// the emitted bytes are pinned to the historical v3 encoding.
type frameWriter struct {
	w       *bufio.Writer
	scratch []byte
	mux     bool
}

// open appends the opcode and, on a mux connection, the session token — the
// shared prefix of every frame body.
func (fw *frameWriter) open(body []byte, op byte, m message) []byte {
	body = append(body, op)
	if fw.mux {
		body = binary.AppendUvarint(body, m.sess)
	}
	return body
}

// append encodes m as one frame onto the buffered writer without flushing.
// The frame is assembled whole in the scratch buffer — 4 reserved header
// bytes, then opcode and payload — so one Write commits it and nothing
// escapes to the heap.
func (fw *frameWriter) append(m message) error {
	if cap(fw.scratch) < 4 {
		fw.scratch = make([]byte, 0, 256)
	}
	body := fw.scratch[:4] // length placeholder, filled below
	switch m.Op {
	case "fetch":
		body = fw.open(body, opFetch, m)
	case "ok":
		body = fw.open(body, opOK, m)
	case "quit":
		body = fw.open(body, opQuit, m)
	case "error":
		body = fw.open(body, opError, m)
		body = append(body, m.Msg...)
	case "config":
		if fidelityOnWire(m.Fidelity) {
			body = fw.open(body, opConfigF, m)
			body = appendID(body, m)
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(m.Fidelity))
		} else {
			body = fw.open(body, opConfig, m)
			body = appendID(body, m)
		}
		body = binary.AppendUvarint(body, uint64(len(m.Values)))
		for _, v := range m.Values {
			body = binary.AppendVarint(body, int64(v))
		}
	case "report":
		switch {
		case len(m.Characteristics) > 0:
			body = fw.open(body, opReportC, m)
			body = appendID(body, m)
			fid := m.Fidelity
			if !fidelityOnWire(fid) {
				fid = 0 // full fidelity rides as an explicit zero here
			}
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(fid))
		case fidelityOnWire(m.Fidelity):
			body = fw.open(body, opReportF, m)
			body = appendID(body, m)
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(m.Fidelity))
		default:
			body = fw.open(body, opReport, m)
			body = appendID(body, m)
		}
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(m.Perf))
		if len(m.Characteristics) > 0 {
			body = binary.AppendUvarint(body, uint64(len(m.Characteristics)))
			for _, c := range m.Characteristics {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(c))
			}
		}
	case "register", "registered", "best":
		var op byte
		switch m.Op {
		case "register":
			op = opRegister
		case "registered":
			op = opRegistered
		default:
			op = opBest
		}
		var err error
		if body, err = appendMessage(fw.open(body, op, m), m); err != nil {
			return err
		}
	default:
		return fmt.Errorf("server: cannot encode op %q as a v3 frame", m.Op)
	}
	fw.scratch = body[:0]
	if len(body)-4 > maxFrame {
		return errFrameTooBig
	}
	binary.LittleEndian.PutUint32(body, uint32(len(body)-4))
	_, err := fw.w.Write(body)
	return err
}

// fidelityOnWire reports whether f is a legal reduced-fidelity wire value:
// finite and strictly inside (0, 1). Full fidelity (absent, 0 or ≥1) never
// rides the fidelity opcodes or JSON field, which is what pins
// single-fidelity byte streams unchanged. NaN fails both comparisons.
func fidelityOnWire(f float64) bool {
	return f > 0 && f < 1
}

func appendID(body []byte, m message) []byte {
	if !m.hasID {
		return append(body, 0)
	}
	body = append(body, 1)
	return binary.AppendUvarint(body, uint64(m.id))
}
