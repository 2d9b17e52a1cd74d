package par

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs/eventlog"
)

// TestParseWorkersEnv pins the env-override contract: valid values apply,
// values above the cap clamp with a warning, and garbage or non-positive
// values warn and leave the default active — never a silent ignore, never
// an uncapped override.
func TestParseWorkersEnv(t *testing.T) {
	cases := []struct {
		in       string
		want     int
		wantWarn string // substring; "" = no warning
	}{
		{"1", 1, ""},
		{"8", 8, ""},
		{"1024", 1024, ""},
		{"1025", 1024, "clamped"},
		{"999999999", 1024, "clamped"},
		{"0", 0, "non-positive"},
		{"-3", 0, "non-positive"},
		{"eight", 0, "unparseable"},
		{"8.5", 0, "unparseable"},
		{"", 0, "unparseable"}, // init never passes "", but the parser must not crash
		{"0x10", 0, "unparseable"},
	}
	for _, tc := range cases {
		n, warn := parseWorkersEnv(tc.in)
		if n != tc.want {
			t.Errorf("parseWorkersEnv(%q) = %d, want %d", tc.in, n, tc.want)
		}
		if tc.wantWarn == "" && warn != "" {
			t.Errorf("parseWorkersEnv(%q) unexpected warning %q", tc.in, warn)
		}
		if tc.wantWarn != "" && !strings.Contains(warn, tc.wantWarn) {
			t.Errorf("parseWorkersEnv(%q) warning %q does not mention %q", tc.in, warn, tc.wantWarn)
		}
	}
}

// TestSetWorkersCap pins that the API path enforces the same cap as the
// env path.
func TestSetWorkersCap(t *testing.T) {
	prev := SetWorkers(maxWorkers + 500)
	defer SetWorkers(prev)
	if got := Workers(); got != maxWorkers {
		t.Errorf("Workers() after over-cap SetWorkers = %d, want %d", got, maxWorkers)
	}
}

func TestQueueRunsEverything(t *testing.T) {
	q := NewQueue(4, 2)
	var sum atomic.Int64
	const n = 100
	for i := 1; i <= n; i++ {
		i := i
		if !q.Submit(func() { sum.Add(int64(i)) }) {
			t.Fatalf("Submit %d refused before Close", i)
		}
	}
	q.Close()
	if got, want := sum.Load(), int64(n*(n+1)/2); got != want {
		t.Errorf("sum after Close = %d, want %d", got, want)
	}
}

func TestQueueSubmitAfterCloseRefused(t *testing.T) {
	q := NewQueue(1, 1)
	q.Close()
	if q.Submit(func() { t.Error("job ran after Close") }) {
		t.Error("Submit accepted after Close")
	}
	q.Close() // idempotent
}

func TestQueueBackpressureBlocksNotDrops(t *testing.T) {
	// One worker, one slot: with the worker held, the third Submit must
	// block (backpressure) rather than drop, and every job must still run.
	q := NewQueue(1, 1)
	release := make(chan struct{})
	var ran atomic.Int64
	q.Submit(func() { <-release; ran.Add(1) }) // occupies the worker
	q.Submit(func() { ran.Add(1) })            // occupies the buffer

	done := make(chan struct{})
	go func() {
		q.Submit(func() { ran.Add(1) })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Submit returned with the buffer full and the worker held")
	default:
	}
	close(release)
	<-done
	q.Close()
	if got := ran.Load(); got != 3 {
		t.Errorf("ran %d jobs, want 3", got)
	}
}

func TestQueuePanicIsolated(t *testing.T) {
	var log bytes.Buffer
	defer eventlog.Set(eventlog.Set(slog.New(slog.NewJSONHandler(&log, nil))))
	q := NewQueue(1, 1)
	q.Submit(func() { panic("poison cell") })
	var ok atomic.Bool
	q.Submit(func() { ok.Store(true) }) // the worker must survive
	q.Close()
	var ev struct{ Msg, Panic string }
	if err := json.Unmarshal(log.Bytes(), &ev); err != nil {
		t.Fatalf("event log %q: %v", log.String(), err)
	}
	if ev.Msg != "par.queue.panic" || ev.Panic != "poison cell" {
		t.Errorf("panic reported as %+v, want a par.queue.panic event carrying poison cell", ev)
	}
	if !ok.Load() {
		t.Error("job after a panicking job did not run")
	}
}

func TestQueueConcurrentSubmitters(t *testing.T) {
	q := NewQueue(8, 4)
	var sum atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q.Submit(func() { sum.Add(1) })
			}
		}()
	}
	wg.Wait()
	q.Close()
	if got := sum.Load(); got != 400 {
		t.Errorf("sum = %d, want 400", got)
	}
}
