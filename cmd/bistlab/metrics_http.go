package main

import (
	"repro/internal/httpx"
)

// startMetricsServer stands up the -metrics-addr endpoint on the shared
// hardened server (header-read timeout, graceful stop): /metrics serves
// the canonical-JSON snapshot of the default obs registry, /metrics.prom
// its Prometheus exposition, and — only when requested — /debug/pprof. See
// internal/httpx for the mux and serving policy.
func startMetricsServer(addr string, withPprof bool) (*httpx.Server, error) {
	return httpx.Serve(addr, httpx.ObsMux(withPprof))
}
