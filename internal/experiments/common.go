// Package experiments contains the runners that regenerate every table and
// figure of the paper's evaluation (see DESIGN.md's experiment index). Each
// runner returns a structured result and can render itself as the text
// table/series the paper prints; cmd/bistlab and the repository benchmarks
// are thin wrappers around this package.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/pnbs"
	"repro/internal/sig"
	"repro/internal/skew"
	"repro/internal/tiadc"
)

// PaperSetup holds the Section V knobs the Fig. 5 / Fig. 6 / Table I
// experiments and their ablations vary. The fixed rest of the setup — the
// fc = 1 GHz, B = 90 MHz band, the 180 ps delay, the 10-bit converters and
// the QPSK transmitter — comes from core.PaperScenario().
type PaperSetup struct {
	// JitterRMS is the clock time-skew jitter (3 ps rms).
	JitterRMS float64
	// HalfTaps is nw/2 (30 -> 61 taps).
	HalfTaps int
	// KaiserBeta shapes the reconstruction window (0 = 8; negative = no
	// taper, see pnbs.Options.KaiserBeta).
	KaiserBeta float64
	// NTimes is the cost-function point count (300).
	NTimes int
	// Seed drives every stochastic block.
	Seed int64
}

// DefaultPaperSetup returns the Section V values of the knobs.
func DefaultPaperSetup() PaperSetup {
	c := core.PaperScenario()
	return PaperSetup{
		JitterRMS: c.TI.ClockJitterRMS,
		HalfTaps:  30,
		NTimes:    c.NTimes,
		Seed:      c.Seed,
	}
}

// sampler builds the paper's two-channel sampler (core.PaperScenario().TI:
// 10-bit ADCs, ideal gain/offset) with the setup's seeds and clock jitter.
func (s PaperSetup) sampler() (*tiadc.TIADC, error) {
	c := core.PaperScenario().TI
	c.Ch0.Seed, c.Ch1.Seed, c.Seed = s.Seed+1, s.Seed+2, s.Seed+3
	c.ClockJitterRMS = s.JitterRMS
	return tiadc.New(c)
}

// Acquire captures the paper transmitter's output with nB samples at rate B
// and the matching half-rate capture at B/2, both starts offset by stagger,
// and builds the cost evaluator over NTimes random instants in
// [470, 1700] ns. It returns the evaluator, the transmitter output (the
// ground truth) and the realised delay. A sub-period stagger decorrelates
// the quantization error between captures, which matters when averaging
// several acquisitions.
func (s PaperSetup) Acquire(nB int, stagger float64) (*skew.CostEvaluator, sig.Signal, float64, error) {
	cfg := core.PaperScenario()
	b, err := core.New(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	out := b.Transmitter().Output()
	ti, err := s.sampler()
	if err != nil {
		return nil, nil, 0, err
	}
	band := b.Band()
	t := band.T()
	// Start the capture HalfTaps periods early so the valid reconstruction
	// window begins near t = 0 regardless of the filter length.
	capB, err := ti.Capture(out, t, cfg.NominalD, -float64(s.HalfTaps)*t+stagger, nB)
	if err != nil {
		return nil, nil, 0, err
	}
	t1 := 2 * t
	n1 := nB/2 + 2*s.HalfTaps + 4
	capB1, err := ti.Capture(out, t1, cfg.NominalD, -float64(s.HalfTaps)*t1+stagger, n1)
	if err != nil {
		return nil, nil, 0, err
	}
	setB := skew.SampleSet{Band: band, T0: capB.T0, Ch0: capB.Ch0, Ch1: capB.Ch1}
	setB1 := skew.SampleSet{Band: skew.HalfRateBand(band), T0: capB1.T0, Ch0: capB1.Ch0, Ch1: capB1.Ch1}
	opt := pnbs.Options{HalfTaps: s.HalfTaps, KaiserBeta: s.KaiserBeta}
	lo, hi, err := skew.EvalWindow(setB, setB1, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	tLo, tHi := 470e-9, 1700e-9
	if tLo < lo || tHi > hi {
		return nil, nil, 0, fmt.Errorf("experiments: capture window [%g, %g] does not cover the paper's interval", lo, hi)
	}
	times := skew.RandomTimes(tLo, tHi, s.NTimes, s.Seed+5)
	ce, err := skew.NewCostEvaluator(setB, setB1, times, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	return ce, out, capB.ActualD, nil
}

// writeTable renders an aligned text table.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// ps formats seconds as picoseconds.
func ps(v float64) string { return fmt.Sprintf("%.3f", v*1e12) }

// pct formats a ratio as percent.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// mhz formats Hz as MHz.
func mhz(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4f", v/1e6)
}
