// Package obs is the zero-dependency observability layer: a structured,
// levelled logger on log/slog with a session/trace-ID context convention, a
// lock-cheap metrics registry exposed in Prometheus text format, an opt-in
// HTTP endpoint (/metrics, /healthz, /debug/pprof) and a JSONL sink for the
// search kernel's typed trace events.
//
// Every handle in the package is nil-safe: a nil *Counter, *Gauge,
// *Histogram, *Registry or *JSONL costs one branch per operation, so
// un-instrumented library use pays ~zero. Loggers are plain *slog.Logger
// values; Nop() returns one that discards everything.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ParseLevel maps a CLI-ish level string ("debug", "info", "warn", "error")
// to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a levelled structured logger writing to w. Format is
// "text" (the default) or "json". The handler resolves the session ID
// convention: records logged through a context carrying WithSessionID get a
// "session" attribute automatically.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
	return slog.New(sessionHandler{h}), nil
}

// Nop returns a logger that discards every record at every level.
func Nop() *slog.Logger { return slog.New(nopHandler{}) }

// Default returns the process-default logger: text format at info level on
// stderr (with the session-ID context convention installed).
func Default() *slog.Logger {
	l, _ := NewLogger(os.Stderr, slog.LevelInfo, "text") // "text" never errors
	return l
}

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// sessionKey is the context key for the session/trace-ID convention.
type sessionKey struct{}

// WithSessionID returns a context carrying the session/trace ID; loggers
// built by NewLogger attach it as a "session" attribute on every record
// logged through that context (logger.InfoContext(ctx, ...)).
func WithSessionID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, sessionKey{}, id)
}

// SessionIDFrom extracts the session ID installed by WithSessionID ("" when
// absent).
func SessionIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(sessionKey{}).(string)
	return id
}

// sessionHandler injects the context session ID into each record.
type sessionHandler struct{ inner slog.Handler }

func (h sessionHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

func (h sessionHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := SessionIDFrom(ctx); id != "" {
		r = r.Clone()
		r.AddAttrs(slog.String("session", id))
	}
	return h.inner.Handle(ctx, r)
}

func (h sessionHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return sessionHandler{h.inner.WithAttrs(attrs)}
}

func (h sessionHandler) WithGroup(name string) slog.Handler {
	return sessionHandler{h.inner.WithGroup(name)}
}

// The state behind NewID: a per-process key, drawn on first use, and a
// counter.
var (
	idKeyOnce sync.Once
	idKey     [2]uint64
	idCounter atomic.Uint64
)

// NewID returns a short identifier for sessions and traces: 16 hex chars,
// unique within the process. Each call takes the next value of a counter
// through a keyed bijection of 64-bit words, so no ID repeats before 2^64
// calls and consecutive IDs look unrelated. The key is read from the
// system random source once per process (from the clock, if that source
// is unavailable). IDs name sessions; they are not secrets. It never
// fails, and its only allocation is the returned string.
func NewID() string {
	idKeyOnce.Do(func() {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
		}
		idKey[0], idKey[1] = binary.LittleEndian.Uint64(b[:]), binary.LittleEndian.Uint64(b[8:])
	})
	x := idCounter.Add(1) + idKey[0]
	// The splitmix64 finalizer: xor-shifts and odd multipliers are each
	// invertible, so the whole map is a bijection.
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x = (x ^ x>>31) ^ idKey[1]
	const digits = "0123456789abcdef"
	var id [16]byte
	for i := len(id) - 1; i >= 0; i-- {
		id[i] = digits[x&0xf]
		x >>= 4
	}
	return string(id[:])
}
