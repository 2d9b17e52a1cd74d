package fleet

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
)

// Telemetry window shape: 12 five-second slots — a one-minute rolling
// view, wide enough to smooth single-cell jitter, short enough that an
// operator dashboard reacts to a stall within a scrape interval or two.
const (
	telSlot  = 5 * time.Second
	telSlots = 12
)

// telemetry is a campaign's rolling-window view: wall-clock SLO signals
// (cell latency, unit throughput, running yield) that decay as the window
// slides. Everything here is observational — none of it feeds back into
// scheduling and none of it reaches a golden-pinned artifact; that is
// what keeps the fleet's determinism contract intact while still giving
// operators live p95s.
type telemetry struct {
	cellSeconds *obs.Window // seconds per completed cell
	unitsPerSec *obs.Window // per-cell unit throughput
	yield       *obs.Window // running campaign yield sampled at each cell
}

func newTelemetry() *telemetry {
	return &telemetry{
		cellSeconds: obs.NewWindow(obs.LatencyBuckets, telSlot, telSlots),
		// Unit throughput spans sub-1/s (slow full-physics cells) to
		// thousands/s (resumed or trivial cells).
		unitsPerSec: obs.NewWindow(obs.ExpBuckets(0.25, 4, 10), telSlot, telSlots),
		// Yield lives in [0, 1]; 5% resolution is plenty for an SLO view.
		yield: obs.NewWindow(obs.LinearBuckets(0.05, 0.05, 20), telSlot, telSlots),
	}
}

// WindowStats is the JSON view of one rolling window.
type WindowStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func windowStats(w *obs.Window) WindowStats {
	qs := w.Quantiles(0.5, 0.95, 0.99)
	return WindowStats{
		Count: w.Count(),
		Sum:   w.Sum(),
		P50:   qs[0],
		P95:   qs[1],
		P99:   qs[2],
	}
}

// TelemetryReport is the payload of GET /campaigns/{id}/telemetry: the
// campaign's rolling-window SLO view plus its lifetime yield. For a
// campaign still running the report is live (quantiles move, old slots
// age out); once the campaign ends the last report is frozen, because a
// rolling window scraped an hour after completion would be empty.
type TelemetryReport struct {
	ID            string      `json:"id"`
	State         string      `json:"state"`
	WindowSeconds float64     `json:"window_seconds"`
	CellSeconds   WindowStats `json:"cell_seconds"`
	UnitsPerSec   WindowStats `json:"units_per_sec"`
	Yield         WindowStats `json:"yield"`
	// YieldPPM is the campaign-lifetime yield in parts per million —
	// the same quantity the fleet.yield.ppm gauge tracks for the most
	// recently active campaign.
	YieldPPM int64 `json:"yield_ppm"`
}

// telemetryReport builds the live report. Caller must not hold c.mu.
func (c *Campaign) telemetryReport() TelemetryReport {
	st := c.status()
	return TelemetryReport{
		ID:            c.ID,
		State:         st.State,
		WindowSeconds: c.tel.cellSeconds.Span().Seconds(),
		CellSeconds:   windowStats(c.tel.cellSeconds),
		UnitsPerSec:   windowStats(c.tel.unitsPerSec),
		Yield:         windowStats(c.tel.yield),
		YieldPPM:      int64(st.Yield * 1e6),
	}
}

// noteTelemetry observes one completed cell with its wall-clock duration:
// it feeds the rolling windows and the fleet yield gauge, and emits the
// per-cell completion event. The duration travels beside the result, never
// in it, because CellResult is golden-pinned. Runs on the worker goroutine
// that finished the cell.
func (c *Campaign) noteTelemetry(r campaign.CellResult, elapsed time.Duration) {
	sec := elapsed.Seconds()
	c.tel.cellSeconds.Observe(sec)
	if sec > 0 && r.Units > 0 {
		c.tel.unitsPerSec.Observe(float64(r.Units) / sec)
	}
	st := c.status()
	c.tel.yield.Observe(st.Yield)
	mYieldPPM.Set(int64(st.Yield * 1e6))
	if eventlog.On() {
		eventlog.Emit("fleet.cell.done",
			slog.String("campaign", c.ID),
			slog.String("stimulus", r.Stimulus),
			slog.String("fault", r.Fault),
			slog.Int("units", r.Units),
			slog.Int("rejected", r.Rejected),
			slog.Duration("took", elapsed))
	}
}

// freezeTelemetry stores the final report so the endpoint keeps serving
// meaningful numbers after the windows age out. Called from the campaign
// epilogue, after the terminal state is set.
func (c *Campaign) freezeTelemetry() {
	rep := c.telemetryReport()
	c.mu.Lock()
	c.telSnap = &rep
	c.mu.Unlock()
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request, c *Campaign) {
	c.mu.Lock()
	frozen := c.telSnap
	c.mu.Unlock()
	if frozen != nil {
		writeJSON(w, http.StatusOK, *frozen)
		return
	}
	writeJSON(w, http.StatusOK, c.telemetryReport())
}
