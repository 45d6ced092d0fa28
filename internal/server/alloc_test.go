package server

import (
	"bufio"
	"io"
	"testing"
)

// scriptWire is the transport of one scripted v3 client: it encodes what
// the session sends into a discarding writer, answers the first receive
// with a fetch and every later one with a closed connection.
type scriptWire struct {
	fw         frameWriter
	fetched    bool
	registered bool
	configs    int
}

func (w *scriptWire) recv() (message, error) {
	if w.fetched {
		return message{}, io.EOF
	}
	w.fetched = true
	return message{Op: "fetch"}, nil
}

func (w *scriptWire) send(m message) error {
	switch m.Op {
	case "registered":
		w.registered = true
	case "config":
		w.configs++
	}
	return w.fw.append(m)
}

func (w *scriptWire) sendBatch(ms ...message) error {
	for _, m := range ms {
		if err := w.send(m); err != nil {
			return err
		}
	}
	return nil
}

// TestRegisterAllocs pins what one v3 registration of the two-parameter
// quadratic allocates, from the session's opening through its first config
// to its end: the session and its state twin and ID, the parsed
// specification, the search space and its names and key, the evaluator,
// the kernel's run and its first slab, and the end of the session. The
// registration arrives decoded and the wire encodes into a discarding
// writer, so neither the envelope codec nor the network counts. The
// finished-session ring and the experience store are filled first, so
// their growth does not count either.
func TestRegisterAllocs(t *testing.T) {
	s := NewServer()
	reg := message{Op: "register", RSL: quadRSL, MaxEvals: 40, Improved: true}
	w := &scriptWire{fw: frameWriter{w: bufio.NewWriter(io.Discard)}}
	once := func() {
		w.fetched, w.registered, w.configs = false, false, 0
		sess := s.openSession("127.0.0.1:7", "conn-1")
		sess.tr, sess.proto = w, 3
		err := s.register(sess, reg)
		if err == nil {
			err = s.serve(sess)
		}
		s.endSession(sess, err) //nolint:errcheck // the scripted close ends it cleanly
	}
	for i := 0; i < 2*sessionHistory; i++ {
		once()
	}
	if !w.registered || w.configs != 1 {
		t.Fatalf("scripted session: registered=%v configs=%d, want a registration and one config", w.registered, w.configs)
	}
	const want = 25
	allocs := testing.AllocsPerRun(100, once)
	if !raceEnabled && allocs != want {
		t.Errorf("one registration through its first config allocated %v, want %d", allocs, want)
	}
}
