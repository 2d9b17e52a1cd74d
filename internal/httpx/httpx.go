// Package httpx is the repository's hardened HTTP serving seam: one place
// that knows how to stand up an observability/service endpoint correctly —
// header-read timeouts so an idle connection cannot pin a goroutine
// forever, and a graceful two-phase stop (Shutdown with a deadline, then
// Close) so in-flight requests drain instead of being cut mid-body. Both
// bistlab's -metrics-addr endpoint and the bistd fleet service build on
// it; neither carries its own net/http wiring.
package httpx

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// ReadHeaderTimeout bounds how long a client may dawdle between opening a
// connection and finishing its request headers. Without it every idle or
// malicious connection holds a goroutine and a file descriptor
// indefinitely (slowloris); 10 s is generous for a LAN test floor.
const ReadHeaderTimeout = 10 * time.Second

// Server wraps http.Server with the repository's serving policy: bound
// listener resolution (":0" to the real port), ReadHeaderTimeout applied,
// and a drain-then-close stop path.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and serves handler in a background goroutine. The
// returned server is already accepting; Addr reports the resolved address.
func Serve(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: ReadHeaderTimeout,
	}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	return s, nil
}

// Addr returns the bound address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to the context deadline; whatever is still open
// then is closed forcibly. Always returns the server fully stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with requests still in flight: cut them. Shutdown
		// already closed the listener, Close sweeps the connections.
		s.srv.Close()
	}
	return err
}

// Close stops the server immediately, cutting in-flight requests. Prefer
// Shutdown; Close is the test/teardown path.
func (s *Server) Close() error { return s.srv.Close() }

// ObsMux returns the standard observability mux: /metrics serves the
// canonical-JSON snapshot of the default obs registry, /metrics.prom the
// Prometheus exposition of the same registry, and — only when requested —
// /debug/pprof. A private mux is used instead of http.DefaultServeMux
// precisely so importing net/http/pprof does not unconditionally expose
// profiling.
func ObsMux(withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", MetricsHandler)
	mux.HandleFunc("/metrics.prom", PromHandler)
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// MetricsHandler serves the default obs registry as canonical JSON — the
// same bytes bistlab's -metrics block appends to a report.
func MetricsHandler(w http.ResponseWriter, r *http.Request) {
	b, err := obs.MarshalSnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// PromHandler serves the default obs registry in Prometheus text
// exposition format (0.0.4) so a stock Prometheus scrape_config can point
// at any bist service without an exporter sidecar.
func PromHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w) //nolint:errcheck // client gone mid-scrape; nothing to do
}
