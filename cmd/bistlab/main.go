// Command bistlab regenerates every table and figure of the paper's
// evaluation (DATE 2014, "A flexible BIST strategy for SDR transmitters").
//
// Usage:
//
//	bistlab <experiment> [flags]
//
// Experiments:
//
//	fig3a   PBS alias-free wedges, normalised (paper Fig. 3a)
//	fig3b   feasible subsampling rates for fH = 2.03 GHz, B = 30 MHz (Fig. 3b)
//	fig5    cost function vs delay estimate (Fig. 5)
//	fig6    LMS convergence from several starts (Fig. 6)
//	table1  time-skew estimation comparison (Table I)
//	eq4     reconstruction-error bound validation (Eq. 4/5)
//	dsweep  kernel coefficient magnitude vs delay (Section II-B.1)
//	mask    end-to-end spectral-mask BIST with fault injection
//	flex    multistandard flexibility sweep (Section II-B)
//	ablate  design-choice sweeps (taps, window, N, jitter) + minimiser duel
//	noise   wideband-noise folding analysis (Section II-B.3)
//	yield   Monte-Carlo production yield (in-spec vs marginal lot)
//	avg     multi-capture averaging of the delay estimate
//	loop    loopback fault-masking vs direct PNBS observation
//	resp    reconstruction-filter frequency response vs length
//	all     run everything above in sequence
//
// Coverage campaigns (not part of "all"):
//
//	campaign  stimulus x fault detection matrix; -campaign selects the
//	          grid JSON file (default: the built-in reference grid).
//	          `bistlab -campaign grid.json` is accepted as a shorthand.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/obs/provenance"
	"repro/internal/obs/trace"
	"repro/internal/testkit"
)

// Per-experiment instruments: one counter per experiment name plus a shared
// latency histogram, so `bistlab all -metrics` profiles the whole paper
// regeneration in one pass.
var hExperiment = obs.H("bistlab.experiment.seconds", obs.LatencyBuckets)

// tnBistlabRun is the root span every experiment invocation runs under.
var tnBistlabRun = trace.Intern("bistlab.run")

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bistlab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bistlab", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "capture/PSD size scale in (0, 1]: smaller is faster, noisier")
	nPts := fs.Int("points", 0, "sweep point count (experiment-specific default when 0)")
	jsonOut := fs.Bool("json", false, "emit the structured result as JSON instead of text")
	campaignPath := fs.String("campaign", "", "coverage-campaign grid JSON file (\"default\" or empty = built-in reference grid); implies the campaign experiment when no name is given")
	metrics := fs.Bool("metrics", false, "collect runtime metrics and append a per-run metrics block to the report")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /metrics.prom on this address for the run's duration (implies -metrics)")
	pprofFlag := fs.Bool("pprof", false, "also serve /debug/pprof on -metrics-addr (net/http/pprof)")
	traceOut := fs.String("trace", "", "record a hierarchical trace and write Chrome trace-event JSON (Perfetto-loadable) to this file; - writes to stdout")
	traceNorm := fs.String("trace-normalized", "", "also write the normalized (timestamp-free, worker-count-invariant) span tree to this file; - writes to stdout")
	manifest := fs.Bool("manifest", false, "append the run-provenance manifest (canonical JSON) to the report")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (offline alternative to -pprof's live endpoint)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	runtimetrace := fs.String("runtimetrace", "", "write a runtime/trace execution trace (go tool trace) to this file; scheduler-level, unlike -trace's pipeline spans")
	logJSON := fs.Bool("log-json", false, "emit lifecycle events as slog JSON lines on stderr instead of text")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bistlab <%s|all> [flags]\n", strings.Join(allExperiments(), "|"))
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing experiment name")
	}
	// `bistlab -campaign grid.json` (flags only, no positional experiment)
	// is the documented campaign shorthand.
	name, rest := args[0], args[1:]
	if len(name) > 0 && name[0] == '-' {
		name, rest = "", args
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if name == "" {
		if *campaignPath == "" {
			fs.Usage()
			return fmt.Errorf("missing experiment name")
		}
		name = "campaign"
	}
	if *pprofFlag && *metricsAddr == "" {
		return fmt.Errorf("-pprof needs -metrics-addr to serve on")
	}
	collect := *metrics || *metricsAddr != ""
	if collect {
		obs.Enable()
		obs.Reset() // per-run deltas, not process-lifetime totals
		defer obs.Disable()
	}
	// Lifecycle events go to stderr, so stdout stays the byte-deterministic
	// report stream. Installed only for this run; restored on return so the
	// run() helper stays reentrant under test.
	if *logJSON {
		defer eventlog.Set(eventlog.Set(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	} else {
		defer eventlog.Set(eventlog.Set(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	if *metricsAddr != "" {
		srv, err := startMetricsServer(*metricsAddr, *pprofFlag)
		if err != nil {
			return err
		}
		defer srv.Close()
		eventlog.Emit("bistlab.metrics.serving",
			slog.String("metrics", "http://"+srv.Addr()+"/metrics"),
			slog.String("prom", "http://"+srv.Addr()+"/metrics.prom"))
		if *pprofFlag {
			eventlog.Emit("bistlab.pprof.serving",
				slog.String("pprof", "http://"+srv.Addr()+"/debug/pprof/"))
		}
	}
	// Offline profiling (file-based, vs. -pprof's live endpoint — see
	// README's Tracing section for when to use which).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bistlab: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bistlab: memprofile:", err)
			}
		}()
	}
	if *runtimetrace != "" {
		f, err := os.Create(*runtimetrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	// The provenance manifest fingerprints this invocation; it is embedded
	// in every trace export and appended standalone under -manifest.
	collectManifest := func() (provenance.Manifest, error) {
		return provenance.Collect("bistlab", name, experiments.DefaultPaperSetup().Seed,
			struct {
				Experiment string
				Scale      float64
				Points     int
			}{name, *scale, *nPts})
	}
	tracing := *traceOut != "" || *traceNorm != ""
	if tracing {
		if err := trace.StartRecording(trace.Config{}); err != nil {
			return err
		}
	}
	runErr := func() error {
		if name == "all" {
			for _, n := range allExperiments() {
				fmt.Fprintf(w, "==== %s ====\n", n)
				if err := runOne(w, n, *scale, *nPts, *jsonOut, *campaignPath); err != nil {
					return fmt.Errorf("%s: %w", n, err)
				}
				fmt.Fprintln(w)
			}
			return nil
		}
		return runOne(w, name, *scale, *nPts, *jsonOut, *campaignPath)
	}()
	if tracing {
		rec := trace.StopRecording()
		if runErr == nil && rec != nil {
			man, err := collectManifest()
			if err != nil {
				return err
			}
			rec.SetManifest(man)
			if *traceOut != "" {
				if err := writeArtifact(w, *traceOut, rec.WriteChrome); err != nil {
					return fmt.Errorf("trace: %w", err)
				}
			}
			if *traceNorm != "" {
				b, err := rec.MarshalNormalized()
				if err != nil {
					return fmt.Errorf("trace-normalized: %w", err)
				}
				if err := writeArtifact(w, *traceNorm, func(out io.Writer) error {
					_, err := out.Write(b)
					return err
				}); err != nil {
					return fmt.Errorf("trace-normalized: %w", err)
				}
			}
		}
	}
	if runErr != nil {
		return runErr
	}
	if *manifest {
		man, err := collectManifest()
		if err != nil {
			return err
		}
		b, err := man.MarshalCanonical()
		if err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintln(w, "---- provenance ----")
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if collect {
		return emitMetricsBlock(w, *jsonOut)
	}
	return nil
}

// writeArtifact writes via emitFn either to the report stream ("-") or to a
// freshly created file.
func writeArtifact(w io.Writer, path string, emitFn func(io.Writer) error) error {
	if path == "-" {
		return emitFn(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emitFn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitMetricsBlock appends the per-run metrics snapshot to the report: a
// delimited section in text mode, a second canonical-JSON document (JSON
// lines style) after the result in -json mode. Counters are deltas since
// the start of the invocation (the registry is reset before the run).
func emitMetricsBlock(w io.Writer, jsonOut bool) error {
	b, err := obs.MarshalSnapshot()
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Fprintln(w, "---- metrics ----")
	}
	_, err = w.Write(b)
	return err
}

// renderer unifies text and JSON emission: every experiment result is an
// exported struct with a Render method.
type renderer interface{ Render(io.Writer) }

// emit writes v as text or as canonical JSON. The canonical encoder keeps
// -json output byte-deterministic across runs and platforms (declaration-
// order fields, sorted map keys, shortest-roundtrip floats) and — unlike
// encoding/json — survives the ±Inf sentinels some results legitimately
// carry (e.g. empty alias-free wedges in fig3a).
func emit(w io.Writer, v renderer, jsonOut bool) error {
	if !jsonOut {
		v.Render(w)
		return nil
	}
	b, err := testkit.MarshalCanonical(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// options carries the flags an experiment may read.
type options struct {
	scale        float64
	nPts         int
	campaignPath string
}

// experiment is one bistlab experiment: its name, whether "all" runs it,
// and how it builds its result.
type experiment struct {
	name  string
	inAll bool
	run   func(o options) (renderer, error)
}

// result adapts an experiment's typed (result, error) pair to run's
// signature.
func result[T renderer](r T, err error) (renderer, error) { return r, err }

// experimentTable lists every experiment in usage and "all" order; the
// usage string, the "all" sequence and runOne all read it.
var experimentTable = []experiment{
	{"fig3a", true, func(o options) (renderer, error) { return experiments.RunFig3a(o.nPts), nil }},
	{"fig3b", true, func(options) (renderer, error) { return result(experiments.RunFig3b()) }},
	{"fig5", true, func(o options) (renderer, error) {
		return result(experiments.RunFig5(experiments.DefaultPaperSetup(), o.nPts))
	}},
	{"fig6", true, func(o options) (renderer, error) {
		// -scale shrinks the cost-function point count and -points the
		// rate-B capture length, which is what lets `make trace-smoke`
		// capture a reduced Fig. 6 trace in seconds.
		setup := experiments.DefaultPaperSetup()
		if o.scale > 0 && o.scale < 1 {
			setup.NTimes = max(int(float64(setup.NTimes)*o.scale), 16)
		}
		return result(experiments.RunFig6(setup, nil, o.nPts))
	}},
	{"table1", true, func(options) (renderer, error) {
		return result(experiments.RunTable1(experiments.DefaultPaperSetup()))
	}},
	{"eq4", true, func(options) (renderer, error) { return result(experiments.RunEq4(nil)) }},
	{"dsweep", true, func(o options) (renderer, error) {
		return result(experiments.RunDSweep(core.PaperScenario().Band(), o.nPts))
	}},
	{"mask", true, func(o options) (renderer, error) { return result(experiments.RunMaskBIST(o.scale)) }},
	{"flex", true, func(o options) (renderer, error) { return result(experiments.RunFlex(o.scale)) }},
	{"ablate", true, func(options) (renderer, error) { return result(experiments.RunAblate()) }},
	{"noise", true, func(options) (renderer, error) { return result(experiments.RunNoiseFold()) }},
	{"yield", true, func(o options) (renderer, error) {
		return result(experiments.RunYieldExperiment(o.nPts, o.scale))
	}},
	{"avg", true, func(options) (renderer, error) { return result(experiments.RunAveraging(nil)) }},
	{"loop", true, func(options) (renderer, error) { return result(experiments.RunLoopback()) }},
	{"resp", true, func(options) (renderer, error) { return result(experiments.RunFilterResp()) }},
	{"campaign", false, func(o options) (renderer, error) {
		var grid *campaign.Grid
		if o.campaignPath != "" && o.campaignPath != "default" {
			data, err := os.ReadFile(o.campaignPath)
			if err != nil {
				return nil, err
			}
			g, err := campaign.ParseGrid(data)
			if err != nil {
				return nil, err
			}
			grid = &g
		}
		// -scale < 1 overrides the grid's own scale, mirroring the other
		// experiments (and letting `make campaign-smoke` shrink a committed
		// grid without editing it).
		return result(experiments.RunCoverage(grid, o.scale))
	}},
}

// allExperiments returns the names "all" runs, in order.
func allExperiments() []string {
	var names []string
	for _, e := range experimentTable {
		if e.inAll {
			names = append(names, e.name)
		}
	}
	return names
}

func runOne(w io.Writer, name string, scale float64, nPts int, jsonOut bool, campaignPath string) error {
	obs.C("bistlab.runs." + name).Inc()
	sp := hExperiment.Start()
	defer sp.End()
	tsp := trace.Start(trace.Root, tnBistlabRun)
	tsp.SetAttr("experiment", name)
	defer tsp.End()
	for _, e := range experimentTable {
		if e.name == name {
			r, err := e.run(options{scale: scale, nPts: nPts, campaignPath: campaignPath})
			if err != nil {
				return err
			}
			return emit(w, r, jsonOut)
		}
	}
	return fmt.Errorf("unknown experiment %q", name)
}
