package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestMetricsEndpoint(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer obs.Reset()
	obs.Reset()
	obs.C("test.endpoint.hits").Add(3)

	srv, err := startMetricsServer("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap struct {
		Counters map[string]int64
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, body)
	}
	if snap.Counters["test.endpoint.hits"] != 3 {
		t.Errorf("counter not visible over HTTP: %v", snap.Counters)
	}

	// pprof was not requested: the mux must not expose it.
	code, _ = get(t, "http://"+srv.Addr()+"/debug/pprof/")
	if code == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
}

func TestPprofBehindFlag(t *testing.T) {
	srv, err := startMetricsServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof index status %d", code)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

func TestMetricsBlockAppended(t *testing.T) {
	defer obs.Reset()
	var buf bytes.Buffer
	if err := run(&buf, []string{"fig3b", "-metrics"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	i := strings.Index(out, "---- metrics ----")
	if i < 0 {
		t.Fatalf("no metrics block in output:\n%s", out)
	}
	if !strings.Contains(out[i:], `"bistlab.runs.fig3b": 1`) {
		t.Errorf("metrics block missing the per-experiment counter:\n%s", out[i:])
	}
	// The flag must not leak collection into later invocations.
	if obs.Enabled() {
		t.Error("metrics left enabled after run returned")
	}
}

func TestMetricsBlockJSONMode(t *testing.T) {
	defer obs.Reset()
	var buf bytes.Buffer
	if err := run(&buf, []string{"fig3b", "-json", "-metrics"}); err != nil {
		t.Fatal(err)
	}
	// Two canonical JSON documents: the result, then the snapshot. Both
	// must decode.
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	var docs int
	for dec.More() {
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("document %d: %v", docs, err)
		}
		docs++
	}
	if docs != 2 {
		t.Errorf("expected result + metrics documents, got %d", docs)
	}
	if !strings.Contains(buf.String(), `"skew.cost.evals"`) {
		t.Error("metrics document missing counters")
	}
}

func TestPprofRequiresAddr(t *testing.T) {
	if err := run(io.Discard, []string{"fig3b", "-pprof"}); err == nil {
		t.Error("-pprof without -metrics-addr must fail")
	}
}

func TestRunWithMetricsAddr(t *testing.T) {
	defer obs.Reset()
	// The server binds, serves for the run's duration, and releases the
	// port on return.
	if err := run(io.Discard, []string{"fig3b", "-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

func TestPprofMuxServesAllHandlers(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer obs.Reset()
	obs.Reset()
	obs.C("test.pprof.mux").Inc()

	srv, err := startMetricsServer("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Every registered pprof route must answer, not just the index.
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/heap?debug=1",
		"/debug/pprof/symbol",
	} {
		code, body := get(t, "http://"+srv.Addr()+path)
		if code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, code)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}

	// Enabling pprof must not displace the metrics surface on the same mux.
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d with pprof enabled", code)
	}
	var snap struct {
		Counters map[string]int64
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON with pprof enabled: %v", err)
	}
	if snap.Counters["test.pprof.mux"] != 1 {
		t.Errorf("counter not visible with pprof enabled: %v", snap.Counters)
	}
}
