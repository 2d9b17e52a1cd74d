package eventlog

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// install wires slog's JSON handler to a buffer and restores the previous
// destination (and obs enablement) on cleanup.
func install(t *testing.T) *bytes.Buffer {
	t.Helper()
	prevObs := obs.SetEnabled(true)
	var buf bytes.Buffer
	prev := Set(slog.New(slog.NewJSONHandler(&buf, nil)))
	t.Cleanup(func() {
		Set(prev)
		obs.SetEnabled(prevObs)
	})
	return &buf
}

func TestEmitDisabledReturnsFalse(t *testing.T) {
	prev := Set(nil)
	t.Cleanup(func() { Set(prev) })
	if On() {
		t.Fatal("On() = true with nil destination")
	}
	if Emit("test.never") {
		t.Error("Emit returned true with nil destination")
	}
	if active.Load() != nil {
		t.Error("active.Load() != nil with nil destination")
	}
}

func TestEmitWritesOneJSONLine(t *testing.T) {
	buf := install(t)
	if !Emit("test.hello", slog.String("who", "world"), slog.Int("n", 3)) {
		t.Fatal("Emit returned false with destination installed")
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one newline-terminated line, got %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, line)
	}
	if m["msg"] != "test.hello" || m["who"] != "world" || m["n"] != float64(3) {
		t.Errorf("decoded line = %v", m)
	}
	if _, err := time.Parse(time.RFC3339Nano, m["time"].(string)); err != nil {
		t.Errorf("time does not parse as RFC3339Nano: %v", err)
	}
	if m["level"] != "INFO" {
		t.Errorf("level = %v, want INFO", m["level"])
	}
	// Key order is slog's: time, level, msg, then attrs.
	if !strings.HasPrefix(line, `{"time":"`) {
		t.Errorf("line does not start with time: %s", line)
	}
	if !(strings.Index(line, `"level"`) < strings.Index(line, `"msg"`) &&
		strings.Index(line, `"msg"`) < strings.Index(line, `"who"`)) {
		t.Errorf("keys out of time/level/msg/attrs order: %s", line)
	}
}

func TestEmitCountsInObsRegistry(t *testing.T) {
	install(t)
	c := obs.C("event.test.counted")
	before := c.Value()
	Emit("test.counted")
	Emit("test.counted")
	if got := c.Value() - before; got != 2 {
		t.Errorf("event.test.counted delta = %d, want 2", got)
	}
}

func TestHandlerWithAttrsAndGroups(t *testing.T) {
	buf := install(t)
	l := active.Load().With(slog.String("campaign", "c-1")).WithGroup("cell")
	l.LogAttrs(nil, slog.LevelInfo, "test.grouped", slog.Int("index", 4))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, buf.String())
	}
	if m["campaign"] != "c-1" {
		t.Errorf("With attr missing: %v", m)
	}
	if cell, ok := m["cell"].(map[string]any); !ok || cell["index"] != float64(4) {
		t.Errorf("group not nested under its name: %v", m)
	}
	// With-attrs render before per-call attrs.
	line := buf.String()
	if strings.Index(line, `"campaign"`) > strings.Index(line, `"cell"`) {
		t.Errorf("With attr after call attr: %s", line)
	}
}

func TestHandlerNonInfoLevelAndEscaping(t *testing.T) {
	buf := install(t)
	active.Load().LogAttrs(nil, slog.LevelWarn, "test.warn",
		slog.String("note", "quote\" and \\ and\nnewline"),
		slog.Duration("took", 1500*time.Millisecond),
		slog.Bool("ok", false),
		slog.Float64("f", 0.25))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("line with escapes is not JSON: %v\n%s", err, buf.String())
	}
	if m["level"] != "WARN" {
		t.Errorf("level = %v, want WARN", m["level"])
	}
	if m["note"] != "quote\" and \\ and\nnewline" {
		t.Errorf("escaped string round-trip failed: %q", m["note"])
	}
	// Durations are integer nanoseconds.
	if m["took"] != 1.5e9 || m["ok"] != false || m["f"] != 0.25 {
		t.Errorf("attr values = %v", m)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Errorf("raw newline leaked into output: %q", buf.String())
	}
}

func TestHandlerConcurrentLinesDoNotInterleave(t *testing.T) {
	buf := install(t)
	var wg sync.WaitGroup
	const goroutines, per = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Emit("test.concurrent", slog.Int("g", g), slog.Int("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*per {
		t.Fatalf("got %d lines, want %d", len(lines), goroutines*per)
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved/corrupt line: %v\n%s", err, line)
		}
	}
}

func TestSetReturnsPrevious(t *testing.T) {
	a := slog.New(slog.NewJSONHandler(&bytes.Buffer{}, nil))
	prev := Set(a)
	if got := Set(prev); got != a {
		t.Error("Set did not return the previously installed logger")
	}
}
