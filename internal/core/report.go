package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dsp"
	"repro/internal/mask"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/pnbs"
	"repro/internal/sig"
	"repro/internal/skew"
)

// Stage latency instruments for the BIST pipeline. One histogram per
// pipeline stage (seconds, shared exponential buckets) plus a run counter;
// together with skew's eval counter they make the paper's compute-budget
// discussion observable on a live run instead of analytic-only.
var (
	mRuns         = obs.C("core.bist.runs")
	hStageAcquire = obs.H("core.stage.acquire.seconds", obs.LatencyBuckets)
	hStageEstim   = obs.H("core.stage.estimate.seconds", obs.LatencyBuckets)
	hStageRecon   = obs.H("core.stage.reconstruct.seconds", obs.LatencyBuckets)
	hStageMeasure = obs.H("core.stage.measure.seconds", obs.LatencyBuckets)
	hStageTruth   = obs.H("core.stage.truth.seconds", obs.LatencyBuckets)
	hStageADCChk  = obs.H("core.stage.adccheck.seconds", obs.LatencyBuckets)
	hRunTotal     = obs.H("core.stage.total.seconds", obs.LatencyBuckets)
)

// Trace span names for the pipeline (interned once). The histograms above
// answer "how long do stages take on aggregate"; the spans place each
// stage of each run on a timeline, nested under one root span per BIST
// execution.
var (
	tnRun         = trace.Intern("core.bist.run")
	tnAcquire     = trace.Intern("core.stage.acquire")
	tnEstimate    = trace.Intern("core.stage.estimate")
	tnReconstruct = trace.Intern("core.stage.reconstruct")
	tnMeasure     = trace.Intern("core.stage.measure")
	tnTruth       = trace.Intern("core.stage.truth")
	tnADCCheck    = trace.Intern("core.stage.adccheck")
)

// stageTimer times one pipeline stage into both instruments at once: the
// stage's latency histogram and its trace span open together and close
// together, so the metrics and the timeline always cover the same work.
type stageTimer struct {
	hist obs.Span
	span trace.Span
}

// startStage opens the histogram timer, then the trace span under parent.
func startStage(parent trace.Ctx, h *obs.Histogram, name trace.NameID) stageTimer {
	hist := h.Start()
	return stageTimer{hist: hist, span: trace.Start(parent, name)}
}

// Ctx returns the context the stage's child spans start from.
func (st *stageTimer) Ctx() trace.Ctx { return st.span.Ctx() }

// End closes the trace span, then records the histogram sample.
func (st *stageTimer) End() {
	st.span.End()
	st.hist.End()
}

// ComputeBudget estimates the arithmetic work of one BIST execution — the
// quantity behind the paper's remark that the technique "is more suitable
// for an offline implementation". Counts are analytic (derived from the
// configuration and the LMS trace), not timed.
type ComputeBudget struct {
	// KernelEvals is the number of Kohlenberg kernel evaluations: the
	// dominant cost (a handful of complex multiplies each).
	KernelEvals int64
	// CostEvals is the number of objective evaluations Algorithm 1 used.
	CostEvals int
	// PSDSamples is the number of envelope-grid points reconstructed for
	// the spectral measurements.
	PSDSamples int
}

// Report is the structured outcome of one BIST execution.
type Report struct {
	// Scenario describes the DUT configuration under test.
	Scenario string

	// Delay identification.
	DNominal float64 // DCDE setting
	DActual  float64 // ground truth (simulation only)
	DHat     float64 // LMS estimate
	LMS      skew.LMSResult

	// Reconstruction fidelity against the true waveform at the evaluation
	// instants (simulation-only ground truth, the paper's Delta-epsilon).
	// Zero unless Config.GroundTruth is set.
	ReconRelErr float64

	// Spectral measurements through the BIST path.
	Mask       *mask.Report
	ACPRLowDB  float64
	ACPRHighDB float64
	// OBWHz is the measured 99 % occupied bandwidth.
	OBWHz float64

	// Reference mask check measured directly at the (noiseless) Tx output,
	// for escape/false-alarm analysis. Nil unless Config.GroundTruth is set
	// and the mask test is enabled.
	RefMask *mask.Report

	// Modulator health (set when IRRTest is enabled).
	IRRMeasuredDB float64
	LOLeakageDBc  float64
	IRRTested     bool

	// Modulation quality through the BIST path (set when EVMTest is
	// enabled).
	EVM       *EVMOutcome
	EVMTested bool

	// Instrument pre-check (set when ADCCheck is enabled).
	ADC        *ADCCheckResult
	ADCChecked bool

	// Compute is the analytic work estimate for the run.
	Compute ComputeBudget

	// Verdict.
	Pass     bool
	Failures []string
}

// SkewErrPS returns |DHat - DActual| in picoseconds.
func (r *Report) SkewErrPS() float64 { return math.Abs(r.DHat-r.DActual) * 1e12 }

// Summary renders a compact multi-line report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BIST %s\n", map[bool]string{true: "PASS", false: "FAIL"}[r.Pass])
	fmt.Fprintf(&b, "  scenario: %s\n", r.Scenario)
	fmt.Fprintf(&b, "  delay: nominal %.2f ps, actual %.2f ps, estimated %.3f ps (err %.3f ps, %d LMS iters)\n",
		r.DNominal*1e12, r.DActual*1e12, r.DHat*1e12, r.SkewErrPS(), r.LMS.Iterations)
	if r.ReconRelErr != 0 {
		fmt.Fprintf(&b, "  reconstruction error: %.3g %%\n", 100*r.ReconRelErr)
	}
	if r.Mask != nil {
		fmt.Fprintf(&b, "  mask %s: %v (worst margin %+.2f dB at %+.2f MHz)\n",
			r.Mask.MaskName, r.Mask.Pass, r.Mask.WorstMarginDB, r.Mask.WorstOffsetHz/1e6)
		fmt.Fprintf(&b, "  ACPR: %+.2f / %+.2f dB (low/high); 99%% OBW %.2f MHz\n",
			r.ACPRLowDB, r.ACPRHighDB, r.OBWHz/1e6)
	}
	if r.IRRTested {
		fmt.Fprintf(&b, "  IRR %.1f dB, LO leakage %.1f dBc\n", r.IRRMeasuredDB, r.LOLeakageDBc)
	}
	if r.EVMTested && r.EVM != nil {
		fmt.Fprintf(&b, "  EVM %.2f%% rms / %.2f%% peak over %d symbols\n",
			r.EVM.RMSPercent, r.EVM.PeakPercent, r.EVM.Symbols)
	}
	if r.ADCChecked && r.ADC != nil {
		fmt.Fprintf(&b, "  ADC pre-check: SNDR %.1f / %.1f dB (ch0/ch1)\n",
			r.ADC.SNDRdB[0], r.ADC.SNDRdB[1])
	}
	if r.Compute.KernelEvals > 0 {
		fmt.Fprintf(&b, "  compute: %.1f M kernel evals (%d cost evals, %d PSD samples)\n",
			float64(r.Compute.KernelEvals)/1e6, r.Compute.CostEvals, r.Compute.PSDSamples)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  failure: %s\n", f)
	}
	return b.String()
}

// Run executes the full BIST flow and returns the report.
func (b *BIST) Run() (*Report, error) {
	return b.RunCtx(trace.Root)
}

// RunCtx is Run under a trace parent: the whole execution nests in a
// "core.bist.run" span with one "core.stage.*" child per pipeline stage,
// so a capture shows where a run's wall time went — and, through the
// children the estimate stage hands down to skew, how the LMS descent
// spent it.
func (b *BIST) RunCtx(tc trace.Ctx) (*Report, error) {
	c := b.cfg
	mRuns.Inc()
	run := startStage(tc, hRunTotal, tnRun)
	run.span.SetAttr("scenario", b.tx.Describe())
	defer run.End()
	rep := &Report{
		Scenario: b.tx.Describe(),
		DNominal: c.NominalD,
	}
	// 0. Instrument pre-check: do not trust a broken converter.
	if c.ADCCheck {
		adcChk := startStage(run.Ctx(), hStageADCChk, tnADCCheck)
		chk, err := b.RunADCCheck()
		adcChk.End()
		if err != nil {
			return nil, err
		}
		rep.ADCChecked = true
		rep.ADC = chk
		for i, sndr := range chk.SNDRdB {
			if sndr < minADCSNDRdB {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("ADC channel %d SNDR %.1f dB below instrument floor %.1f dB",
						i, sndr, minADCSNDRdB))
			}
		}
	}

	// 1-2. Acquire the PA output nonuniformly at both rates.
	acq := startStage(run.Ctx(), hStageAcquire, tnAcquire)
	setB, setB1, actualD, err := b.acquire()
	acq.End()
	if err != nil {
		return nil, err
	}
	rep.DActual = actualD

	// 3. Identify the channel delay (Algorithm 1); the LMS spans nest
	// inside the estimate stage.
	est := startStage(run.Ctx(), hStageEstim, tnEstimate)
	var res skew.LMSResult
	ce, err := b.costEvaluator(setB, setB1)
	if err == nil {
		res, err = skew.EstimateLMS(est.Ctx(), ce.Cost, b.cfg.NominalD, ce.M())
	}
	est.End()
	if err != nil {
		return nil, err
	}
	rep.DHat = res.DHat
	rep.LMS = res

	// 4. Reconstruct the bandpass waveform with the estimated delay.
	recon := startStage(run.Ctx(), hStageRecon, tnReconstruct)
	rec, err := b.Reconstructor(setB, res.DHat)
	recon.End()
	if err != nil {
		return nil, err
	}

	meas := startStage(run.Ctx(), hStageMeasure, tnMeasure)
	err = b.measure(rep, rec, res.DHat)
	meas.End()
	if err != nil {
		return nil, err
	}

	// Simulation-only ground truth, after every instrument stage.
	if c.GroundTruth {
		truth := startStage(run.Ctx(), hStageTruth, tnTruth)
		err = b.groundTruth(truth.Ctx(), rep, ce, res.DHat)
		truth.End()
		if err != nil {
			return nil, fmt.Errorf("core: ground truth: %w", err)
		}
	}

	// Analytic compute accounting: every reconstruction evaluation touches
	// 2*(2h+1) kernel terms (both channels across the filter support).
	taps := int64(2 * (2*halfTaps + 1))
	rep.Compute.CostEvals = res.CostEvals
	rep.Compute.KernelEvals = int64(res.CostEvals) * int64(c.NTimes) * 2 * taps
	if c.Mask != nil {
		over, _ := dsp.EnvelopeOversampling(c.Fc, c.B) // envelopeGrid errs when none exists
		rep.Compute.PSDSamples = c.PSDLen
		rep.Compute.KernelEvals += int64(c.PSDLen) * int64(over) * taps
	}
	if c.GroundTruth {
		rep.Compute.KernelEvals += int64(len(ce.Times())) * taps // fidelity check
	}

	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

// measure runs the instrument measurements on the reconstruction: the
// spectral mask, EVM and IRR sub-tests the configuration enables, each
// recording its values and any failure reason in rep.
func (b *BIST) measure(rep *Report, rec *pnbs.Reconstructor, dHat float64) error {
	c := b.cfg
	// 5. Spectral measurements.
	if c.Mask != nil {
		env, fsEnv, _, err := b.envelopeGrid(rec, c.PSDLen)
		if err != nil {
			return err
		}
		spec, err := b.measurePSD(env, fsEnv)
		if err != nil {
			return err
		}
		mrep, err := mask.Check(c.Mask, spec, c.Fc)
		if err != nil {
			return err
		}
		rep.Mask = mrep
		if obw, _, err := mask.OccupiedBandwidth(spec, 0.99); err == nil {
			rep.OBWHz = obw
		}
		if v, err := mask.ACPR(spec, c.Fc, c.Mask.ChannelBW, -c.Mask.ChannelBW*1.25); err == nil {
			rep.ACPRLowDB = v
		}
		if v, err := mask.ACPR(spec, c.Fc, c.Mask.ChannelBW, c.Mask.ChannelBW*1.25); err == nil {
			rep.ACPRHighDB = v
		}
		if !mrep.Pass {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("spectral mask %s violated by %.2f dB at %+.2f MHz",
					mrep.MaskName, -mrep.WorstMarginDB, mrep.WorstOffsetHz/1e6))
		}
		if c.MinChannelPower > 0 && mrep.ChannelPower < c.MinChannelPower {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("channel power %.3g below minimum %.3g", mrep.ChannelPower, c.MinChannelPower))
		}
	}

	// 6. Modulation quality through the reconstruction path.
	if c.EVMTest {
		evm, err := b.RunEVMTest(rec)
		if err != nil {
			return err
		}
		rep.EVMTested = true
		rep.EVM = evm
		if evm.RMSPercent > c.MaxEVMPercent {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("EVM %.2f%% above limit %.2f%%", evm.RMSPercent, c.MaxEVMPercent))
		}
	}

	// 7. Modulator health via the SSB tone test.
	if c.IRRTest {
		irr, leak, err := b.RunIRRTest(dHat)
		if err != nil {
			return err
		}
		rep.IRRTested = true
		rep.IRRMeasuredDB = irr
		rep.LOLeakageDBc = leak
		if irr < minIRRDB {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("image rejection %.1f dB below minimum %.1f dB", irr, minIRRDB))
		}
		if leak > maxLOLeakDBc {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("LO leakage %.1f dBc above limit %.1f dBc", leak, maxLOLeakDBc))
		}
	}
	return nil
}

// groundTruth computes the simulation-only reference values from the true
// waveform: the reconstruction's relative error at the cost instants
// (Delta-epsilon) and, with a mask, the mask check on the Tx envelope.
func (b *BIST) groundTruth(tc trace.Ctx, rep *Report, ce *skew.CostEvaluator, dHat float64) error {
	c := b.cfg
	got, err := ce.Reconstruct(dHat)
	if err != nil {
		return err
	}
	rep.ReconRelErr = dsp.RelRMSError(got, sig.SampleAt(b.tx.Output(), ce.Times()))
	if c.Mask == nil {
		return nil
	}
	refSpec, err := b.referencePSD(tc)
	if err != nil {
		return err
	}
	rep.RefMask, err = mask.Check(c.Mask, refSpec, c.Fc)
	return err
}

// Reconstructor builds the rate-B reconstructor for an acquired set and a
// delay estimate.
func (b *BIST) Reconstructor(setB skew.SampleSet, dHat float64) (*pnbs.Reconstructor, error) {
	return pnbs.NewReconstructor(setB.Band, dHat, setB.T0, setB.Ch0, setB.Ch1, b.opt())
}

// refChunk is referencePSD's fan-out grain: an envelope instant costs
// well under a microsecond, less than a per-item pool claim.
const refChunk = 64

// referencePSD measures the Welch PSD of the true Tx envelope on a uniform
// grid (the "golden" instrument the BIST replaces). Envelope evaluations
// are independent per instant, so they fan out over the par pool in fixed
// chunks of refChunk instants (one par.task span each when traced); each
// grid point's value depends only on its own instant, keeping the result
// identical at any worker count.
func (b *BIST) referencePSD(tc trace.Ctx) (*dsp.Spectrum, error) {
	c := b.cfg
	env := b.tx.OutputEnvelope()
	n := c.PSDLen
	xs := make([]complex128, n)
	par.ForCtx(tc, n, refChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = env.At(c.CaptureStart + float64(i)/c.B)
		}
	})
	return dsp.WelchComplex(xs, c.B, c.Fc, dsp.DefaultWelch(c.SegLen))
}
