package fleet

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/testkit"
)

// drainEvents blocks until the campaign's event stream is closed — which
// happens strictly after the terminal state event was emitted and counted,
// so telemetry read after this is complete, not racing the epilogue.
func drainEvents(c *Campaign) {
	cursor := 0
	for {
		_, next, ok := c.events.next(cursor)
		if !ok {
			return
		}
		cursor = next
	}
}

// TestTelemetryEndpoint pins the per-campaign SLO view: while the
// campaign runs the report is live; once it ends the report freezes with
// the full cell count and a sane yield, and keeps serving those numbers.
func TestTelemetryEndpoint(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	c := submitAndWait(t, s, Spec{Name: "telemetry", Grid: fleetGrid()})
	drainEvents(c)

	body := getOK(t, ts.URL+"/campaigns/"+c.ID+"/telemetry")
	var rep TelemetryReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("telemetry not JSON: %v\n%s", err, body)
	}
	if rep.ID != c.ID || rep.State != StateDone {
		t.Errorf("report identity = (%s, %s), want (%s, done)", rep.ID, rep.State, c.ID)
	}
	if rep.CellSeconds.Count != 6 {
		t.Errorf("cell_seconds.count = %d, want 6", rep.CellSeconds.Count)
	}
	if rep.CellSeconds.Sum <= 0 || rep.CellSeconds.P95 < rep.CellSeconds.P50 {
		t.Errorf("cell_seconds stats implausible: %+v", rep.CellSeconds)
	}
	if rep.UnitsPerSec.Count != 6 {
		t.Errorf("units_per_sec.count = %d, want 6", rep.UnitsPerSec.Count)
	}
	if rep.Yield.Count != 6 {
		t.Errorf("yield.count = %d, want 6", rep.Yield.Count)
	}
	if rep.YieldPPM < 0 || rep.YieldPPM > 1_000_000 {
		t.Errorf("yield_ppm = %d, want within [0, 1e6]", rep.YieldPPM)
	}
	if rep.WindowSeconds != (telSlot * telSlots).Seconds() {
		t.Errorf("window_seconds = %v", rep.WindowSeconds)
	}

	// Frozen: a second scrape returns the same bytes even though time has
	// passed (a live window would age observations out).
	body2 := getOK(t, ts.URL+"/campaigns/"+c.ID+"/telemetry")
	if string(body2) != string(body) {
		t.Error("frozen telemetry changed between scrapes")
	}

	// Unknown campaigns 404.
	if code, _ := getStatus(t, ts.URL+"/campaigns/nope/telemetry"); code != 404 {
		t.Errorf("unknown campaign telemetry = %d, want 404", code)
	}
}

// TestTelemetryNormalizedGolden pins the determinism boundary of the
// observability layer: strip everything wall-clock (counter/gauge values,
// histogram fills, ticker-driven watchdog events) and what remains —
// event counts by name, instrument names, bucket shapes — is byte-
// identical at 1, 2 and 8 workers, and matches the golden file.
func TestTelemetryNormalizedGolden(t *testing.T) {
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	prevLog := eventlog.Set(slog.New(slog.NewJSONHandler(io.Discard, nil)))
	defer eventlog.Set(prevLog)

	prefixes := []string{"event.", "fleet.", "par.queue.", "campaign."}
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		obs.Reset()
		s := newTestServer(t, Config{
			Workers:         workers,
			CheckpointDir:   filepath.Join(t.TempDir(), "ckpt"),
			CheckpointEvery: 1,
		})
		c := submitAndWait(t, s, Spec{Name: "normalized", Grid: fleetGrid()})
		drainEvents(c)

		nt := obs.Normalized(prefixes...)
		// Spot-check the deterministic event counts before golden-diffing:
		// 6 cells always complete exactly once, 6 cadence checkpoints plus
		// the final write, 3 state transitions (queued, running, done).
		if nt.Events["fleet.cell.done"] != 6 {
			t.Errorf("workers=%d: fleet.cell.done = %d, want 6", workers, nt.Events["fleet.cell.done"])
		}
		if nt.Events["fleet.checkpoint.write"] != 7 {
			t.Errorf("workers=%d: fleet.checkpoint.write = %d, want 7", workers, nt.Events["fleet.checkpoint.write"])
		}
		if nt.Events["fleet.state"] != 3 {
			t.Errorf("workers=%d: fleet.state = %d, want 3", workers, nt.Events["fleet.state"])
		}

		b, err := testkit.MarshalCanonical(nt)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
			testkit.Golden(t, filepath.Join("testdata", "golden", "telemetry_normalized.json"), nt, testkit.Options{})
		} else if string(b) != string(first) {
			t.Errorf("workers=%d: normalized telemetry differs from workers=1:\n%s\nvs\n%s", workers, b, first)
		}

		ctx, cancel := testContext(5 * time.Second)
		s.Shutdown(ctx)
		cancel()
	}
}
