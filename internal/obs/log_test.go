package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want slog.Level
		ok   bool
	}{
		{"debug", slog.LevelDebug, true},
		{"info", slog.LevelInfo, true},
		{"", slog.LevelInfo, true},
		{"WARN", slog.LevelWarn, true},
		{"warning", slog.LevelWarn, true},
		{"error", slog.LevelError, true},
		{"loud", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseLevel(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseLevel(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestLoggerSessionIDConvention: records logged through a context carrying
// WithSessionID pick up the "session" attribute in both formats.
func TestLoggerSessionIDConvention(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithSessionID(context.Background(), "abc123")
	log.InfoContext(ctx, "session event", "k", 1)
	log.Info("bare event")

	dec := json.NewDecoder(&buf)
	var first, second map[string]any
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&second); err != nil {
		t.Fatal(err)
	}
	if first["session"] != "abc123" {
		t.Errorf("session attr = %v, want abc123 (record: %v)", first["session"], first)
	}
	if _, ok := second["session"]; ok {
		t.Errorf("bare record grew a session attr: %v", second)
	}
	if SessionIDFrom(ctx) != "abc123" {
		t.Errorf("SessionIDFrom = %q", SessionIDFrom(ctx))
	}
	if SessionIDFrom(context.Background()) != "" {
		t.Error("SessionIDFrom(empty) != \"\"")
	}
}

func TestLoggerLevelAndFormat(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, slog.LevelWarn, "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("filtered")
	log.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "filtered") {
		t.Errorf("info record leaked past warn level: %q", out)
	}
	if !strings.Contains(out, "kept") {
		t.Errorf("warn record missing: %q", out)
	}
	if _, err := NewLogger(&buf, slog.LevelInfo, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestNopLoggerDiscards: the no-op logger is enabled at no level.
func TestNopLoggerDiscards(t *testing.T) {
	log := Nop()
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Error("nop logger claims to be enabled")
	}
	log.Error("dropped") // must not panic
}

func TestNewIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}
