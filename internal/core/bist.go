// Package core orchestrates the complete RF BIST strategy of the paper:
// drive the transmitter with a multistandard test waveform, capture the PA
// output with the nonuniform BP-TIADC built from the idle receiver ADCs,
// identify the inter-channel delay with the LMS technique (Algorithm 1),
// reconstruct the bandpass waveform (Kohlenberg interpolation) and verify
// spectral-mask compliance plus modulator health (image rejection, LO
// leakage). Fault injection and structured reports make it a production
// test flow rather than a demo.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/dsp"
	"repro/internal/mask"
	"repro/internal/modem"
	"repro/internal/pnbs"
	"repro/internal/rf"
	"repro/internal/sig"
	"repro/internal/skew"
	"repro/internal/tiadc"
)

// Config fully describes one BIST execution.
type Config struct {
	// Name optionally labels the configuration in reports and sweeps.
	Name string

	// --- Test waveform -------------------------------------------------
	// Constellation names the modulation ("QPSK", "16QAM", ...).
	Constellation string
	// SymbolRate in symbols/s (paper: 10 MHz).
	SymbolRate float64
	// RollOff is the SRRC roll-off (paper: 0.5).
	RollOff float64
	// Seed drives symbol generation.
	Seed int64
	// Symbols, when non-nil, replaces the seed-drawn random symbol stream
	// of numSymbols symbols with an explicit one (e.g. a PRBS-driven
	// campaign stimulus mapped onto the constellation). The stream is
	// cyclic like the generated one, and the EVM sub-test stays available
	// — the reference symbols are known either way. Seed is ignored for
	// waveform generation when set.
	Symbols []complex128
	// BasebandPower is the mean |envelope|^2 driven into the chain
	// (0 = 0.5).
	BasebandPower float64
	// Baseband, when non-nil, overrides the internally generated
	// single-carrier waveform with a custom envelope (e.g. OFDM). The EVM
	// sub-test is unavailable in this mode (no known symbol stream).
	Baseband sig.Envelope

	// --- Device under test ----------------------------------------------
	// Fc is the carrier frequency (paper: 1 GHz).
	Fc float64
	// Tx configures impairments; Tx.Fc is overridden with Fc.
	Tx rf.TxConfig

	// --- Acquisition ----------------------------------------------------
	// B is the per-channel capture rate and reconstruction bandwidth
	// (paper: 90 MHz).
	B float64
	// NominalD is the DCDE setting and the LMS start (0 = 1/(4 Fc)).
	NominalD float64
	// TI configures the BP-TIADC (channels, DCDE, clock jitter).
	TI tiadc.Config
	// CaptureLen is the per-channel sample count at rate B (0 = 2200).
	CaptureLen int
	// CaptureStart is the nominal first sampling instant.
	CaptureStart float64
	// CalibrateMismatch enables the background gain/offset calibration of
	// the two channels before reconstruction (paper Section III / [16]).
	CalibrateMismatch bool

	// --- Delay estimation -------------------------------------------------
	// NTimes is the cost-function sample count (0 = 300, the paper's N).
	NTimes int
	// TimesSeed seeds the random evaluation instants.
	TimesSeed int64

	// --- Measurements -----------------------------------------------------
	// Mask, when non-nil, enables the spectral-mask test.
	Mask *mask.Mask
	// PSDLen is the number of envelope samples (at rate B) used for the
	// Welch PSD (0 = 2048).
	PSDLen int
	// SegLen is the Welch segment length (0 = 512).
	SegLen int
	// IRRTest enables the single-sideband tone test measuring image
	// rejection and LO leakage through the reconstruction path.
	IRRTest bool
	// MinChannelPower, when positive, requires at least this in-channel
	// power (V^2) — catches dead-gain faults.
	MinChannelPower float64
	// EVMTest enables the modulation-quality sub-test through the
	// reconstruction path.
	EVMTest bool
	// MaxEVMPercent is the EVM pass threshold (0 = 8 %).
	MaxEVMPercent float64
	// ADCCheck enables the converter instrument pre-check.
	ADCCheck bool

	// --- Simulation-only ground truth --------------------------------------
	// GroundTruth also measures what only a simulator can, from the true
	// waveform rather than the captures: Report.ReconRelErr (the paper's
	// Delta-epsilon at the cost instants) and, with a Mask, Report.RefMask
	// (the mask check on the un-quantised Tx envelope). Both run in their
	// own "core.stage.truth" stage after the instrument stages and read no
	// capture, so they never move an estimate, a margin or a verdict.
	GroundTruth bool
}

// Fixed test parameters. The thresholds are floats so the failure strings
// format them with %.1f.
const (
	// pulseSpan is the one-sided SRRC span of the test waveform in symbols.
	pulseSpan = 8
	// numSymbols is the length of the seed-drawn cyclic symbol stream.
	numSymbols = 128
	// halfTaps is nw/2 of the reconstruction filter (61 taps, the paper's).
	halfTaps = 30
	// minIRRDB is the image-rejection pass threshold.
	minIRRDB = 30.0
	// maxLOLeakDBc is the LO-leakage pass threshold.
	maxLOLeakDBc = -30.0
	// evmSymbols is the demodulated symbol count of the EVM sub-test.
	evmSymbols = 48
	// minADCSNDRdB is the per-channel SNDR floor of the ADC pre-check; the
	// healthy ceiling is jitter-limited around 34 dB.
	minADCSNDRdB = 30.0
)

func (c Config) withDefaults() Config {
	if c.Constellation == "" {
		c.Constellation = "QPSK"
	}
	if c.BasebandPower == 0 {
		c.BasebandPower = 0.5
	}
	if c.NominalD == 0 {
		c.NominalD = 1 / (4 * c.Fc)
	}
	if c.CaptureLen == 0 {
		c.CaptureLen = 2200
	}
	if c.NTimes == 0 {
		c.NTimes = 300
	}
	if c.PSDLen == 0 {
		c.PSDLen = 2048
	}
	if c.SegLen == 0 {
		c.SegLen = 512
	}
	if c.MaxEVMPercent == 0 {
		c.MaxEVMPercent = 8
	}
	// The PSD grid must fit inside the reconstruction's valid range
	// (capture minus the filter half-support on each side).
	if maxPSD := c.CaptureLen - 2*halfTaps - 8; c.PSDLen > maxPSD {
		c.PSDLen = maxPSD
		if c.SegLen > c.PSDLen/2 {
			c.SegLen = c.PSDLen / 2
		}
	}
	return c
}

// Band returns the rate-B capture band: width B centred on the carrier.
func (c Config) Band() pnbs.Band { return pnbs.Band{FLow: c.Fc - c.B/2, B: c.B} }

// BIST is a configured self-test engine. It is not safe for concurrent
// use: each acquisition advances the TIADC model's capture counter, which
// seeds that capture's clock jitter. The measure stage keeps no scratch on
// the BIST; every envelope grid is allocated by its caller.
type BIST struct {
	cfg  Config
	band pnbs.Band
	tx   *rf.Transmitter
	ti   *tiadc.TIADC
	bb   *modem.ShapedEnvelope
}

// New validates the configuration and assembles the test article and
// instrumentation.
func New(cfg Config) (*BIST, error) {
	c := cfg.withDefaults()
	if c.Fc <= 0 {
		return nil, fmt.Errorf("core: carrier %g must be positive", c.Fc)
	}
	if c.SymbolRate <= 0 {
		return nil, fmt.Errorf("core: symbol rate %g must be positive", c.SymbolRate)
	}
	if c.B <= 0 || c.B >= 2*c.Fc {
		return nil, fmt.Errorf("core: capture rate %g implausible for fc %g", c.B, c.Fc)
	}
	occupied := c.SymbolRate * (1 + c.RollOff)
	if occupied > c.B {
		return nil, fmt.Errorf("core: occupied bandwidth %g exceeds capture bandwidth %g",
			occupied, c.B)
	}
	band := c.Band()
	if err := skew.CheckUniqueness(band, skew.HalfRateBand(band)); err != nil {
		return nil, fmt.Errorf("core: dual-rate configuration infeasible (pick B with frac(2fc/B) in (0, 0.5]): %w", err)
	}
	var bb *modem.ShapedEnvelope
	var baseband sig.Envelope
	if c.Baseband != nil {
		if c.EVMTest {
			return nil, fmt.Errorf("core: the EVM sub-test needs the internally generated waveform")
		}
		baseband = c.Baseband
	} else {
		cst, err := modem.ByName(c.Constellation)
		if err != nil {
			return nil, err
		}
		pulse, err := modem.NewSRRC(1/c.SymbolRate, c.RollOff, pulseSpan)
		if err != nil {
			return nil, err
		}
		syms := c.Symbols
		if syms == nil {
			syms = cst.RandomSymbols(numSymbols, c.Seed)
		}
		bb, err = modem.NewShapedEnvelope(syms, pulse)
		if err != nil {
			return nil, err
		}
		// The normalisation gain is a pure function of the waveform
		// generation parameters (the symbols are drawn deterministically
		// from the seed, or supplied explicitly and fingerprinted), and
		// SetAvgPower's power estimate samples the envelope thousands of
		// times. A fault-matrix experiment builds tens of BISTs with the
		// same test waveform, so the computed gain is cached by those
		// parameters — a hit reproduces the exact same Gain value the full
		// estimate would.
		key := gainKey{
			constellation: c.Constellation, numSymbols: len(syms),
			symbolRate: c.SymbolRate, rollOff: c.RollOff,
			power: c.BasebandPower,
		}
		if c.Symbols != nil {
			// An explicit stream is independent of Seed; key it by content
			// so every campaign cell sharing a stimulus shares the gain.
			key.symHash = hashSymbols(syms)
		} else {
			key.seed = c.Seed
		}
		if g, ok := gainCache.Load(key); ok {
			bb.Gain = g.(float64)
		} else {
			bb.SetAvgPower(c.BasebandPower, 4096)
			gainCache.Store(key, bb.Gain)
		}
		baseband = bb
	}
	txCfg := c.Tx
	txCfg.Fc = c.Fc
	tx, err := rf.NewTransmitter(txCfg, baseband)
	if err != nil {
		return nil, err
	}
	ti, err := tiadc.New(c.TI)
	if err != nil {
		return nil, err
	}
	if c.Mask != nil {
		// Warm the shared FFT plan for the Welch segment length at assembly
		// time so the first mask capture measures the DUT, not the one-off
		// twiddle-table construction.
		dsp.PlanFFT(c.SegLen)
	}
	return &BIST{cfg: c, band: band, tx: tx, ti: ti, bb: bb}, nil
}

// Baseband exposes the shaped test envelope (for EVM-style ground truth).
func (b *BIST) Baseband() *modem.ShapedEnvelope { return b.bb }

// Band returns the capture band.
func (b *BIST) Band() pnbs.Band { return b.band }

// Transmitter exposes the device under test (for ground-truth comparisons).
func (b *BIST) Transmitter() *rf.Transmitter { return b.tx }

// opt returns the reconstruction options.
func (b *BIST) opt() pnbs.Options {
	return pnbs.Options{HalfTaps: halfTaps}
}

// acquire captures the Tx output at rates B and B/2 with the shared DCDE
// setting and returns the two sample sets.
func (b *BIST) acquire() (setB, setB1 skew.SampleSet, actualD float64, err error) {
	c := b.cfg
	out := b.tx.Output()
	t := 1 / c.B
	capB, err := finiteCapture(b.ti.Capture(out, t, c.NominalD, c.CaptureStart, c.CaptureLen))
	if err != nil {
		return setB, setB1, 0, fmt.Errorf("core: rate-B capture: %w", err)
	}
	t1 := 2 * t
	n1 := c.CaptureLen/2 + 2*halfTaps + 4
	t01 := c.CaptureStart - float64(2*halfTaps)*t1/2
	capB1, err := finiteCapture(b.ti.Capture(out, t1, c.NominalD, t01, n1))
	if err != nil {
		return setB, setB1, 0, fmt.Errorf("core: rate-B/2 capture: %w", err)
	}
	if c.CalibrateMismatch {
		if capB, err = calibrated(capB); err != nil {
			return setB, setB1, 0, fmt.Errorf("core: rate-B calibration: %w", err)
		}
		if capB1, err = calibrated(capB1); err != nil {
			return setB, setB1, 0, fmt.Errorf("core: rate-B/2 calibration: %w", err)
		}
	}
	setB = skew.SampleSet{Band: b.band, T0: capB.T0, Ch0: capB.Ch0, Ch1: capB.Ch1}
	setB1 = skew.SampleSet{Band: skew.HalfRateBand(b.band), T0: capB1.T0,
		Ch0: capB1.Ch0, Ch1: capB1.Ch1}
	return setB, setB1, capB.ActualD, nil
}

// finiteCapture passes a capture through when every sample is finite and
// otherwise returns an error naming the channel and the first non-finite
// sample. The quantizer clips ±Inf but passes NaN through (every comparison
// with NaN is false), and an unchecked NaN runs the whole pipeline to a
// NaN channel power and a +Inf mask margin on a "passing" unit.
func finiteCapture(c *tiadc.Capture, err error) (*tiadc.Capture, error) {
	if err != nil {
		return nil, err
	}
	for ch, xs := range [][]float64{c.Ch0, c.Ch1} {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("channel %d sample %d is %g", ch, i, v)
			}
		}
	}
	return c, nil
}

// calibrated runs the background gain/offset mismatch estimation and
// correction on a capture.
func calibrated(c *tiadc.Capture) (*tiadc.Capture, error) {
	m, err := tiadc.EstimateMismatch(c)
	if err != nil {
		return nil, err
	}
	return m.Corrected(c)
}

// costEvaluator builds the dual-rate cost (Eqs. 7-8) Algorithm 1 descends,
// summed over NTimes random instants drawn inside the sets' common
// evaluation window with a guard band kept away from its edges.
func (b *BIST) costEvaluator(setB, setB1 skew.SampleSet) (*skew.CostEvaluator, error) {
	lo, hi, err := skew.EvalWindow(setB, setB1, b.opt())
	if err != nil {
		return nil, err
	}
	span := hi - lo
	times := skew.RandomTimes(lo+0.05*span, hi-0.05*span, b.cfg.NTimes, b.cfg.TimesSeed)
	return skew.NewCostEvaluator(setB, setB1, times, b.opt())
}

// envelopeGrid reconstructs the complex envelope on a uniform grid at rate
// fsEnv = B from the start of the reconstruction's valid range: the
// bandpass reconstruction oversampled, mixed to baseband, lowpass filtered
// to kill the 2 fc image and decimated, which pnbs.EnvelopeInto computes as
// one complex FIR over the two capture channels.
func (b *BIST) envelopeGrid(r *pnbs.Reconstructor, n int) (env []complex128, fsEnv, t0 float64, err error) {
	fsEnv = b.cfg.B
	lo, hi := r.ValidRange()
	if hi-lo < float64(n)/fsEnv {
		return nil, 0, 0, fmt.Errorf("core: capture too short for a %d-point PSD grid", n)
	}
	env = make([]complex128, n)
	if err := r.EnvelopeInto(b.cfg.Fc, lo, fsEnv, env); err != nil {
		return nil, 0, 0, fmt.Errorf("core: %w", err)
	}
	return env, fsEnv, lo, nil
}

// gainKey identifies one deterministic test waveform for the normalisation
// gain cache in New: every field that influences the generated symbols, the
// SRRC pulse, or the target power participates, so two configs share a gain
// only when SetAvgPower would compute the identical value.
type gainKey struct {
	constellation string
	numSymbols    int
	seed          int64
	symHash       uint64
	symbolRate    float64
	rollOff       float64
	power         float64
}

var gainCache sync.Map // gainKey -> float64

// hashSymbols fingerprints an explicit symbol stream (FNV-1a over the
// little-endian IEEE bit patterns) for the normalisation-gain cache key.
func hashSymbols(syms []complex128) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, s := range syms {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(s)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(s)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// measurePSD produces the RF-referred Welch PSD from a reconstructed
// envelope grid.
func (b *BIST) measurePSD(env []complex128, fsEnv float64) (*dsp.Spectrum, error) {
	cfg := dsp.DefaultWelch(b.cfg.SegLen)
	return dsp.WelchComplex(env, fsEnv, b.cfg.Fc, cfg)
}
