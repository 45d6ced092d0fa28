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
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
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

// idCounter breaks ties when the random source is unavailable.
var idCounter atomic.Uint64

// NewID returns a short random identifier for sessions and traces
// (16 hex chars). It never fails: if the system random source is
// unavailable it degrades to a time+counter scheme that is still unique
// within the process.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := idCounter.Add(1)
		t := uint64(time.Now().UnixNano())
		for i := 0; i < 8; i++ {
			b[i] = byte((t ^ n<<32) >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}
