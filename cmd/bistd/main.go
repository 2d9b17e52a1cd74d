// bistd is the BIST campaign fleet daemon: a long-running service that
// accepts campaign grids over HTTP/JSON, executes their (stimulus, fault,
// unit) cells across a bounded worker queue, streams per-unit verdicts and
// running yield as NDJSON, and checkpoints progress so a killed process
// resumes — byte-identical — where it stopped.
//
// Three modes:
//
//	bistd -addr :8077 -checkpoint-dir /var/lib/bist   serve (default)
//	bistd -submit grid.json -server http://host:8077  client: run one
//	      campaign to completion and print its matrix
//	bistd -merge -grid grid.json a.ckpt.json b.ckpt.json
//	      merge shard checkpoints into the full matrix
//
// Sharding: start one process per shard with -shard i/n and a shared or
// per-host checkpoint dir; each owns a disjoint strided slice of every
// campaign's sorted cell list, and -merge folds the shard checkpoints into
// bytes identical to an unsharded run.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bistd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bistd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8077", "listen address (server mode)")
		addrFile   = fs.String("addr-file", "", "write the bound address to this file once listening (lets scripts use -addr :0)")
		ckptDir    = fs.String("checkpoint-dir", "", "directory for campaign checkpoints; empty disables durability")
		ckptEvery  = fs.Int("checkpoint-every", 1, "completed cells between checkpoint writes")
		shardSpec  = fs.String("shard", "0/1", "this process's cell partition, as i/n")
		queueDepth = fs.Int("queue", 16, "campaign admission queue depth")
		workers    = fs.Int("workers", 0, "cell worker count (0: BIST_WORKERS or GOMAXPROCS)")
		withPprof  = fs.Bool("pprof", false, "expose /debug/pprof")
		drainSecs  = fs.Int("drain", 30, "seconds to wait for in-flight cells on shutdown")
		logJSON    = fs.Bool("log-json", false, "emit the event log as slog JSON lines instead of text")
		watchdogIv = fs.Duration("watchdog-interval", time.Second, "fleet health sampling interval (0 disables the watchdog)")

		submit  = fs.String("submit", "", "client mode: grid JSON file to run against -server")
		server  = fs.String("server", "http://127.0.0.1:8077", "client mode: bistd base URL")
		name    = fs.String("name", "", "client mode: campaign label")
		doTrace = fs.Bool("trace", false, "client mode: request a Perfetto trace")
		quiet   = fs.Bool("quiet", false, "client mode: suppress the event stream on stderr")
		timeout = fs.Duration("timeout", 10*time.Minute, "client mode: overall deadline")

		merge    = fs.Bool("merge", false, "merge mode: fold shard checkpoint files (args) into the full matrix")
		gridFile = fs.String("grid", "", "merge mode: grid JSON the checkpoints belong to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obs.Enable()
	// Every lifecycle message goes through the structured event log; the
	// stream lands on stderr as slog text by default, slog JSON with
	// -log-json (one object per line: time, level, msg, then attributes).
	if *logJSON {
		eventlog.Set(slog.New(slog.NewJSONHandler(stderr, nil)))
	} else {
		eventlog.Set(slog.New(slog.NewTextHandler(stderr, nil)))
	}

	switch {
	case *merge:
		return runMerge(stdout, *gridFile, fs.Args())
	case *submit != "":
		return runClient(stdout, stderr, *server, *submit, *name, *doTrace, *quiet, *timeout)
	default:
		return runServer(serverOpts{
			addr: *addr, addrFile: *addrFile,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery,
			shard: *shardSpec, queueDepth: *queueDepth, workers: *workers,
			withPprof: *withPprof, drain: time.Duration(*drainSecs) * time.Second,
			watchdog: *watchdogIv,
		})
	}
}

type serverOpts struct {
	addr, addrFile string
	ckptDir        string
	ckptEvery      int
	shard          string
	queueDepth     int
	workers        int
	withPprof      bool
	drain          time.Duration
	watchdog       time.Duration
}

// runServer stands the fleet up and blocks until SIGINT/SIGTERM, then
// drains: stop scheduling cells, finish in-flight ones, write the final
// checkpoints, stop the HTTP server gracefully.
func runServer(o serverOpts) error {
	sh, err := fleet.ParseShard(o.shard)
	if err != nil {
		return err
	}
	fs, err := fleet.NewServer(fleet.Config{
		CheckpointDir:   o.ckptDir,
		CheckpointEvery: o.ckptEvery,
		Shard:           sh,
		QueueDepth:      o.queueDepth,
		Workers:         o.workers,
	})
	if err != nil {
		return err
	}
	hs, err := httpx.Serve(o.addr, fs.Handler(o.withPprof))
	if err != nil {
		return err
	}
	if o.addrFile != "" {
		// Atomic write: pollers must never read a half-written address.
		tmp := o.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(hs.Addr()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, o.addrFile); err != nil {
			return err
		}
	}
	if o.watchdog > 0 {
		fs.StartWatchdog(o.watchdog)
	}
	eventlog.Emit("bistd.listening",
		slog.String("addr", hs.Addr()),
		slog.Int("shard_index", sh.Index),
		slog.Int("shard_count", sh.Count),
		slog.String("checkpoints", orNone(o.ckptDir)))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	eventlog.Emit("bistd.draining")

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	ferr := fs.Shutdown(ctx) // cells drain + final checkpoints first,
	herr := hs.Shutdown(ctx) // then in-flight HTTP (streams end with the campaigns)
	if ferr != nil {
		return ferr
	}
	return herr
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

// runClient submits one grid and runs it to completion: POST the spec,
// relay the NDJSON stream to stderr, and print the final canonical matrix
// to stdout. Exit is non-zero unless the campaign reaches "done".
func runClient(stdout, stderr io.Writer, base, gridPath, name string, doTrace, quiet bool, timeout time.Duration) error {
	gridData, err := os.ReadFile(gridPath)
	if err != nil {
		return err
	}
	g, err := campaign.ParseGrid(gridData)
	if err != nil {
		return err
	}
	spec := fleet.Spec{Name: name, Grid: g, Trace: doTrace}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	base = strings.TrimRight(base, "/")

	st, err := postSpec(ctx, base, body)
	if err != nil {
		return err
	}
	eventlog.Emit("bistd.campaign",
		slog.String("campaign", st.ID),
		slog.String("state", st.State))

	final, err := followStream(ctx, stderr, base, st.ID, quiet)
	if err != nil {
		return err
	}
	if final.State != fleet.StateDone {
		return fmt.Errorf("campaign %s ended %s: %s", final.ID, final.State, final.Error)
	}
	matrix, err := getBody(ctx, base+"/campaigns/"+final.ID+"/matrix")
	if err != nil {
		return err
	}
	_, err = stdout.Write(matrix)
	return err
}

func postSpec(ctx context.Context, base string, body []byte) (fleet.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/campaigns", bytes.NewReader(body))
	if err != nil {
		return fleet.Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fleet.Status{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fleet.Status{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fleet.Status{}, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var st fleet.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return fleet.Status{}, fmt.Errorf("submit: bad status body: %w", err)
	}
	return st, nil
}

// followStream relays the campaign's NDJSON events until the stream ends,
// returning the last state event seen.
func followStream(ctx context.Context, stderr io.Writer, base, id string, quiet bool) (fleet.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/campaigns/"+id+"/stream", nil)
	if err != nil {
		return fleet.Status{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fleet.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleet.Status{}, fmt.Errorf("stream: %s", resp.Status)
	}
	var last fleet.Status
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !quiet {
			fmt.Fprintf(stderr, "%s\n", line)
		}
		var ev struct {
			Type   string
			Status fleet.Status
		}
		if err := json.Unmarshal(line, &ev); err == nil && ev.Type == "state" {
			last = ev.Status
		}
	}
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("stream: %w", err)
	}
	return last, nil
}

func getBody(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// runMerge folds shard checkpoint files into the full detection matrix on
// stdout. Refuses gaps and overlaps — the merge must cover every cell of
// the grid exactly once to claim byte-identity with a single-process run.
func runMerge(stdout io.Writer, gridPath string, ckptPaths []string) error {
	if gridPath == "" {
		return fmt.Errorf("merge: -grid is required")
	}
	if len(ckptPaths) == 0 {
		return fmt.Errorf("merge: no checkpoint files given")
	}
	gridData, err := os.ReadFile(gridPath)
	if err != nil {
		return err
	}
	g, err := campaign.ParseGrid(gridData)
	if err != nil {
		return err
	}
	var cks []*campaign.Checkpoint
	for _, path := range ckptPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ck, err := campaign.ParseCheckpoint(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		cks = append(cks, ck)
	}
	m, err := campaign.MergeCheckpoints(g, cks...)
	if err != nil {
		return err
	}
	b, err := m.MarshalCanonical()
	if err != nil {
		return err
	}
	_, err = stdout.Write(b)
	return err
}
