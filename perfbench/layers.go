package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pnbs"
	"repro/internal/skew"
	"repro/internal/tiadc"
)

// layerNames lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload never enters reads 0.
var layerNames = [][2]string{
	{"core.acquire_ms", "ms"},
	{"core.estimate_ms", "ms"},
	{"core.reconstruct_ms", "ms"},
	{"core.measure_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.stage_sum_pct", "%"},
	{"core.new_ms", "ms"},
	{"skew.cost_evals_per_unit", "count"},
	{"skew.memo_hit_ratio", "ratio"},
	{"skew.cost_eval_us", "us"},
	{"skew.cost_us", "us"},
	{"pnbs.kernel_evals_per_unit", "count"},
	{"pnbs.envelope_grid_ns_per_pt", "ns"},
	{"dsp.plan_hit_ratio", "ratio"},
	{"dsp.welch_us", "us"},
	{"dsp.fft_us", "us"},
	{"campaign.plan_ms", "ms"},
	{"campaign.fold_ms", "ms"},
	{"campaign.cell_p50_ms.qam16-backoff6", "ms"},
	{"campaign.cell_p50_ms.qpsk-nominal", "ms"},
	{"campaign.cell_p50_ms.qpsk-overdrive", "ms"},
	{"campaign.cell_p50_ms.qpsk-prbs7-short", "ms"},
	{"par.for_inline_ratio", "ratio"},
	{"par.workers_active_max", "count"},
	{"par.queue_depth_max", "count"},
	{"fleet.submit_ms", "ms"},
	{"fleet.checkpoint_writes_per_cell", "count"},
	{"fleet.checkpoint_kb_per_cell", "KiB"},
	{"fleet.stream_kb_per_unit", "KiB"},
	{"runtime.alloc_mb_per_unit", "MB"},
	{"runtime.gc_per_unit", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.dropped", "count"},
}

// The recording's capacity. A unit commits a few hundred to a few thousand
// spans (one par.task per reference-PSD instant among them) and tens of
// counter samples; the traced quarter of a run stays well inside both.
const (
	traceMaxSpans    = 1 << 20
	traceMaxCounters = 1 << 18
)

// layerRun is the traced run. The op list's first quarter runs with
// tracing and metrics off (runtime allocation figures and the untraced
// rate); the second quarter runs under trace.StartRecording with obs
// enabled, and the span tree and counters give the per-layer figures.
// Kernel timings on the first op's inputs follow. The recorder's
// preallocated buffers raise the heap's GC target, so trace.overhead_pct
// nets the tracing cost against fewer GC cycles and can read below zero.
func layerRun(b bench, stderr io.Writer) (result, error) {
	q := (b.passes() + 3) / 4
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, plainWall, ok1 := runPasses(b, 0, q, stderr)
	runtime.ReadMemStats(&ms1)

	obs.Reset()
	obs.Enable()
	if err := trace.StartRecording(trace.Config{MaxSpans: traceMaxSpans, MaxCounters: traceMaxCounters}); err != nil {
		return result{}, err
	}
	traced, tracedWall, ok2 := runPasses(b, q, 2*q, stderr)
	rec := trace.StopRecording()
	snap := obs.Default().Snapshot()
	obs.Disable()

	m := metrics{}
	for _, nu := range layerNames {
		m.set(nu[0], 0, nu[1])
	}
	failedPlain, unitsPlain := countFailed(plain)
	failedTraced, unitsTraced := countFailed(traced)
	m.set("runtime.alloc_mb_per_unit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(unitsPlain), "MB")
	m.set("runtime.gc_per_unit", float64(ms1.NumGC-ms0.NumGC)/float64(unitsPlain), "count")
	plainRate := float64(unitsPlain) / plainWall.Seconds()
	tracedRate := float64(unitsTraced) / tracedWall.Seconds()
	m.set("trace.overhead_pct", 100*(plainRate/tracedRate-1), "%")
	m.set("trace.dropped", float64(rec.Dropped), "count")
	spanLayers(m, rec)
	counterLayers(m, snap)
	if err := b.layers(m, plain); err != nil {
		return result{}, err
	}
	units, err := b.probe()
	if err != nil {
		return result{}, err
	}
	if err := probeLayers(m, units); err != nil {
		return result{}, err
	}
	failed := failedPlain + failedTraced
	return result{
		Correct:   ok1 && ok2 && failed == 0 && rec.Dropped == 0,
		Attempted: len(plain) + len(traced),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// spanLayers reads the core stage times off the span tree: each stage
// span's duration per unit, which includes the skew, pnbs and dsp calls
// the stage makes (their own costs are the kernel rows).
func spanLayers(m metrics, rec *trace.Recording) {
	total := map[string]int64{}
	runs := 0
	for _, s := range rec.Spans {
		total[s.Name] += s.Dur
		if s.Name == "core.bist.run" {
			runs++
		}
	}
	if runs == 0 {
		return
	}
	perUnit := func(name string) float64 { return float64(total[name]) / 1e6 / float64(runs) }
	stages := 0.0
	for _, st := range []string{"acquire", "estimate", "reconstruct", "measure"} {
		v := perUnit("core.stage." + st)
		m.set("core."+st+"_ms", v, "ms")
		stages += v
	}
	m.set("core.run_ms", perUnit("core.bist.run"), "ms")
	m.set("core.stage_sum_pct", 100*stages/perUnit("core.bist.run"), "%")
}

// counterLayers derives the work counts and ratios of the traced quarter
// from the obs registry.
func counterLayers(m metrics, s *obs.Snapshot) {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	runs := c("core.bist.runs")
	evals := c("skew.cost.evals")
	m.set("skew.cost_evals_per_unit", ratio(evals, runs), "count")
	m.set("skew.memo_hit_ratio", ratio(c("skew.lms.memo.hits"), evals), "ratio")
	if est := m["core.estimate_ms"].Value; evals > 0 {
		m.set("skew.cost_eval_us", 1e3*est*runs/evals, "us")
	}
	m.set("dsp.plan_hit_ratio", ratio(c("dsp.plan.hits"), c("dsp.plan.hits")+c("dsp.plan.misses")), "ratio")
	m.set("par.for_inline_ratio", ratio(c("par.for.inline"), c("par.for.calls")), "ratio")
	m.set("par.workers_active_max", float64(s.Gauges["par.workers.active"].Max), "count")
	m.set("par.queue_depth_max", float64(s.Gauges["par.queue.depth"].Max), "count")
	m.set("fleet.checkpoint_writes_per_cell", ratio(c("fleet.checkpoint.writes"), c("fleet.cells.run")), "count")
}

// probeUnit is one device taken from a workload's first op, with the
// verdict it must produce.
type probeUnit struct {
	cfg  core.Config
	pass bool
}

// probeLayers times core.New on the probe devices, reads their analytic
// kernel work from Report.Compute, and times the kernels on the first
// device's inputs.
func probeLayers(m metrics, units []probeUnit) error {
	var newMS, kernelEvals []float64
	for i, u := range units {
		t0 := time.Now()
		b, err := core.New(u.cfg)
		if err != nil {
			return err
		}
		newMS = append(newMS, msSince(t0))
		rep, err := b.Run()
		if err != nil {
			return err
		}
		if rep.Pass != u.pass {
			return fmt.Errorf("probe unit %d: verdict pass=%v, want %v", i, rep.Pass, u.pass)
		}
		kernelEvals = append(kernelEvals, float64(rep.Compute.KernelEvals))
	}
	m.set("core.new_ms", median(newMS), "ms")
	m.set("pnbs.kernel_evals_per_unit", mean(kernelEvals), "count")
	return kernelTier(m, units[0].cfg)
}

// kernelTier times the hot kernels under the BIST on one device's inputs:
// the LMS cost function, the measure stage's envelope grid and Welch PSD,
// and one FFT plan execution at the Welch segment length. The captures are
// taken the way the acquire stage takes them.
func kernelTier(m metrics, cfg core.Config) error {
	b, err := core.New(cfg)
	if err != nil {
		return err
	}
	// The core.Config defaults and PSD clipping, for the fields the probe
	// devices leave at zero.
	const halfTaps, kaiserBeta = 30, 8
	capLen, psdLen, segLen := cfg.CaptureLen, cfg.PSDLen, cfg.SegLen
	if psdLen == 0 {
		psdLen = 2048
	}
	if segLen == 0 {
		segLen = 512
	}
	if maxPSD := capLen - 2*halfTaps - 8; psdLen > maxPSD {
		psdLen = maxPSD
		segLen = min(segLen, psdLen/2)
	}
	ti, err := tiadc.New(cfg.TI)
	if err != nil {
		return err
	}
	out := b.Transmitter().Output()
	t := 1 / cfg.B
	capB, err := ti.Capture(out, t, cfg.NominalD, cfg.CaptureStart, capLen)
	if err != nil {
		return err
	}
	t1 := 2 * t
	capB1, err := ti.Capture(out, t1, cfg.NominalD, cfg.CaptureStart-float64(2*halfTaps)*t1/2, capLen/2+2*halfTaps+4)
	if err != nil {
		return err
	}
	band := b.Band()
	setB := skew.SampleSet{Band: band, T0: capB.T0, Ch0: capB.Ch0, Ch1: capB.Ch1}
	setB1 := skew.SampleSet{Band: skew.HalfRateBand(band), T0: capB1.T0, Ch0: capB1.Ch0, Ch1: capB1.Ch1}
	opt := pnbs.Options{HalfTaps: halfTaps, KaiserBeta: kaiserBeta}
	lo, hi, err := skew.EvalWindow(setB, setB1, opt)
	if err != nil {
		return err
	}
	span := hi - lo
	ce, err := skew.NewCostEvaluator(setB, setB1, skew.RandomTimes(lo+0.05*span, hi-0.05*span, cfg.NTimes, cfg.TimesSeed), opt)
	if err != nil {
		return err
	}
	var costErr error
	m.set("skew.cost_us", 1e3*timeKernel(200, func() {
		if _, err := ce.Cost(cfg.NominalD); err != nil {
			costErr = err
		}
	}), "us")
	if costErr != nil {
		return costErr
	}

	r, err := b.Reconstructor(setB, cfg.NominalD)
	if err != nil {
		return err
	}
	over := oversampling(cfg.Fc, cfg.B)
	if over == 0 {
		return fmt.Errorf("no envelope-grid oversampling factor for fc %g, B %g", cfg.Fc, cfg.B)
	}
	rlo, _ := r.ValidRange()
	grid := make([]complex128, psdLen*over)
	m.set("pnbs.envelope_grid_ns_per_pt", 1e6*timeKernel(50, func() {
		r.EnvelopeGridInto(cfg.Fc, rlo, cfg.B*float64(over), grid)
	})/float64(len(grid)), "ns")

	env := make([]complex128, psdLen)
	for i := range env {
		env[i] = grid[i*over]
	}
	var welchErr error
	m.set("dsp.welch_us", 1e3*timeKernel(100, func() {
		if _, err := dsp.WelchComplex(env, cfg.B, cfg.Fc, dsp.DefaultWelch(segLen)); err != nil {
			welchErr = err
		}
	}), "us")
	if welchErr != nil {
		return welchErr
	}

	plan := dsp.PlanFFT(segLen)
	dst := make([]complex128, segLen)
	const fftBatch = 100
	m.set("dsp.fft_us", 1e3*timeKernel(50, func() {
		for i := 0; i < fftBatch; i++ {
			plan.ExecuteInto(dst, env[:segLen])
		}
	})/fftBatch, "us")
	return nil
}

// oversampling mirrors the measure stage's choice of envelope-grid
// oversampling: the smallest factor in [4, 12] that keeps the 2fc mixing
// image clear of the decimation passband (0 if none does).
func oversampling(fc, b float64) int {
	for over := 4; over <= 12; over++ {
		hi := b * float64(over)
		img := math.Mod(2*fc, hi)
		if img > hi/2 {
			img = hi - img
		}
		if img > 0.6*b {
			return over
		}
	}
	return 0
}

// timeKernel runs fn once to warm it, then reps more times, and returns
// the median call time in milliseconds.
func timeKernel(reps int, fn func()) float64 {
	fn()
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = msSince(t0)
	}
	return median(xs)
}
