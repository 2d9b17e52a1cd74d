package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/httpx"
	"repro/internal/testkit"
)

// Handler returns the fleet's HTTP surface on top of the standard
// observability mux (so /metrics and /metrics.prom come for free, pprof when
// asked):
//
//	POST /campaigns                submit a Spec; 201 on admit, 200 if the
//	                               same content is already registered, 503
//	                               when the admission queue is full
//	GET  /campaigns                list campaign statuses
//	GET  /campaigns/{id}           one campaign's status
//	GET  /campaigns/{id}/stream    NDJSON event stream: full replay, then
//	                               live until the campaign ends
//	GET  /campaigns/{id}/matrix    canonical DetectionMatrix (409 until done)
//	GET  /campaigns/{id}/checkpoint  current checkpoint (canonical JSON)
//	GET  /campaigns/{id}/manifest  provenance manifest
//	GET  /campaigns/{id}/trace     Perfetto/Chrome trace (404 unless the
//	                               spec asked for one and the campaign ended)
//	GET  /campaigns/{id}/telemetry rolling-window SLO view (live while the
//	                               campaign runs, frozen at its end)
//	GET  /healthz                  readiness: ok/degraded 200, stalled or
//	                               draining 503, JSON body with causes
func (s *Server) Handler(withPprof bool) http.Handler {
	mux := httpx.ObsMux(withPprof)
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.withCampaign(s.handleStatus))
	mux.HandleFunc("GET /campaigns/{id}/stream", s.withCampaign(s.handleStream))
	mux.HandleFunc("GET /campaigns/{id}/matrix", s.withCampaign(s.handleMatrix))
	mux.HandleFunc("GET /campaigns/{id}/checkpoint", s.withCampaign(s.handleCheckpoint))
	mux.HandleFunc("GET /campaigns/{id}/manifest", s.withCampaign(s.handleManifest))
	mux.HandleFunc("GET /campaigns/{id}/trace", s.withCampaign(s.handleTrace))
	mux.HandleFunc("GET /campaigns/{id}/telemetry", s.withCampaign(s.handleTelemetry))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz serves the readiness report: ok and degraded are 200 (the
// fleet still takes work), stalled and draining are 503 (route campaigns
// elsewhere). The body is the machine-readable Health struct either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.State == HealthStalled || h.State == HealthDraining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// maxSpecBytes bounds a submission body; a campaign spec is small, and an
// unbounded read is a trivial memory DoS on a floor-facing service.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := ParseSpec(buf)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c, admitted, err := s.Submit(spec)
	switch {
	case errors.Is(err, errQueueFull):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	code := http.StatusOK
	if admitted {
		code = http.StatusCreated
	}
	writeJSON(w, code, c.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statuses())
}

// withCampaign resolves {id} and 404s unknown campaigns.
func (s *Server) withCampaign(h func(http.ResponseWriter, *http.Request, *Campaign)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, ok := s.Campaign(r.PathValue("id"))
		if !ok {
			http.Error(w, "fleet: unknown campaign", http.StatusNotFound)
			return
		}
		h(w, r, c)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, c *Campaign) {
	writeJSON(w, http.StatusOK, c.status())
}

// handleStream replays the campaign's event history and follows it live as
// NDJSON, flushing per batch, until the campaign ends or the client goes
// away. A disconnected client is noticed via its request context, which
// wakes the event-log wait.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, c *Campaign) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ctx := r.Context()
	stop := context.AfterFunc(ctx, c.events.wake)
	defer stop()

	cursor := 0
	for ctx.Err() == nil {
		batch, next, ok := c.events.next(cursor)
		if !ok {
			return
		}
		cursor = next
		for _, line := range batch {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request, c *Campaign) {
	c.mu.Lock()
	state, matrix := c.state, c.matrix
	c.mu.Unlock()
	if state != StateDone || matrix == nil {
		http.Error(w, fmt.Sprintf("fleet: campaign is %s, matrix requires done", state), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(matrix)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, c *Campaign) {
	b, err := c.Checkpoint().MarshalCanonical()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request, c *Campaign) {
	writeCanonical(w, c.manifest)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, c *Campaign) {
	c.mu.Lock()
	rec := c.traceRec
	c.mu.Unlock()
	if rec == nil {
		http.Error(w, "fleet: no trace recorded (submit with Trace:true and wait for the campaign to end)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rec.WriteChrome(w); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}

// writeJSON encodes compact JSON responses (statuses, lists). Artifacts
// with byte-stability contracts (matrix, checkpoint, manifest) are written
// from their canonical bytes instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // headers already sent
}

func writeCanonical(w http.ResponseWriter, v any) {
	b, err := testkit.MarshalCanonical(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
