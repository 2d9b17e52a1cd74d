package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dsp"
	"repro/internal/obs/trace"
	"repro/internal/sig"
	"repro/internal/skew"
)

// AblateRow is one design-point evaluation.
type AblateRow struct {
	Param     string
	Value     float64
	SkewErrPS float64
	ReconErr  float64
	CostEvals int
	Iters     int
}

// AblateResult sweeps the design choices DESIGN.md calls out — filter
// length, window shape, cost-sample count, clock jitter — one at a time
// around the paper's operating point, and additionally compares Algorithm 1
// against a golden-section search on the same objective.
type AblateResult struct {
	Rows []AblateRow
	// GoldenEvals and LMSEvals compare the two minimisers at the paper's
	// operating point.
	GoldenEvals, LMSEvals int
	GoldenErrPS, LMSErrPS float64
}

// AblateSweep configures the RunAblate design grids. The zero value of a
// list skips that sweep; DefaultAblateSweep reproduces the paper-scale run.
type AblateSweep struct {
	// HalfTaps, KaiserBeta, NTimes and Jitter are the per-parameter value
	// grids (jitter in seconds rms).
	HalfTaps   []int
	KaiserBeta []float64
	NTimes     []int
	Jitter     []float64
	// BaseNTimes overrides the cost-sample count for every design point
	// outside the NTimes sweep and for the minimiser duel (0 = the paper's
	// 300). Smaller values trade estimate variance for speed; the golden
	// regression test runs the sweep at BaseNTimes = 60.
	BaseNTimes int
}

// DefaultAblateSweep returns the grids DESIGN.md calls out, centred on the
// paper's operating point.
func DefaultAblateSweep() AblateSweep {
	return AblateSweep{
		HalfTaps:   []int{10, 20, 30, 45, 60},
		KaiserBeta: []float64{-1, 4, 6, 8, 10, 12},
		NTimes:     []int{50, 100, 200, 300, 500},
		Jitter:     []float64{0, 1e-12, 3e-12, 6e-12, 10e-12},
	}
}

// RunAblate executes the full default sweep. Each design point runs the
// complete acquire -> evaluate -> estimate pipeline on the paper scenario.
func RunAblate() (*AblateResult, error) {
	return RunAblateSweep(DefaultAblateSweep())
}

// RunAblateSweep executes the sweep over the given grids.
func RunAblateSweep(cfg AblateSweep) (*AblateResult, error) {
	res := &AblateResult{}
	runPoint := func(param string, value float64, mutate func(s *PaperSetup)) error {
		s := DefaultPaperSetup()
		if cfg.BaseNTimes > 0 {
			s.NTimes = cfg.BaseNTimes
		}
		mutate(&s)
		// Capture length scales with the filter span so the paper's
		// evaluation window stays covered for every design point.
		ce, out, actualD, err := s.Acquire(2*s.HalfTaps+170, 0)
		if err != nil {
			return err
		}
		r, err := skew.EstimateLMS(trace.Root, ce.Cost, 100e-12, ce.M())
		if err != nil {
			return err
		}
		// Reconstruction error with the estimated delay (vs ideal samples).
		got, err := ce.Reconstruct(r.DHat)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, AblateRow{
			Param:     param,
			Value:     value,
			SkewErrPS: math.Abs(r.DHat-actualD) * 1e12,
			ReconErr:  dsp.RelRMSError(got, sig.SampleAt(out, ce.Times())),
			CostEvals: r.CostEvals,
			Iters:     r.Iterations,
		})
		return nil
	}

	for _, ht := range cfg.HalfTaps {
		ht := ht
		if err := runPoint("halfTaps", float64(ht), func(s *PaperSetup) { s.HalfTaps = ht }); err != nil {
			return nil, err
		}
	}
	// -1 is the rectangular (untapered) design point: KaiserBeta < 0
	// disables the taper, quantifying what the window buys.
	for _, kb := range cfg.KaiserBeta {
		kb := kb
		if err := runPoint("kaiserBeta", kb, func(s *PaperSetup) { s.KaiserBeta = kb }); err != nil {
			return nil, err
		}
	}
	for _, nt := range cfg.NTimes {
		nt := nt
		if err := runPoint("nTimes", float64(nt), func(s *PaperSetup) { s.NTimes = nt }); err != nil {
			return nil, err
		}
	}
	for _, jit := range cfg.Jitter {
		jit := jit
		if err := runPoint("jitterPS", jit*1e12, func(s *PaperSetup) { s.JitterRMS = jit }); err != nil {
			return nil, err
		}
	}

	// Minimiser comparison at the operating point.
	s := DefaultPaperSetup()
	if cfg.BaseNTimes > 0 {
		s.NTimes = cfg.BaseNTimes
	}
	ce, _, actualD, err := s.Acquire(220, 0)
	if err != nil {
		return nil, err
	}
	lms, err := skew.EstimateLMS(trace.Root, ce.Cost, 100e-12, ce.M())
	if err != nil {
		return nil, err
	}
	m := ce.M()
	lo, hi := skew.SearchInterval(m)
	gold, err := skew.GoldenSection(ce.Cost, lo, hi, 0.05e-12)
	if err != nil {
		return nil, err
	}
	res.LMSEvals = lms.CostEvals
	res.LMSErrPS = math.Abs(lms.DHat-actualD) * 1e12
	res.GoldenEvals = gold.CostEvals
	res.GoldenErrPS = math.Abs(gold.DHat-actualD) * 1e12
	return res, nil
}

// Render prints the sweep tables.
func (r *AblateResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Design-choice ablations around the paper operating point")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Param,
			fmt.Sprintf("%g", row.Value),
			fmt.Sprintf("%.3f", row.SkewErrPS),
			pct(row.ReconErr),
			fmt.Sprintf("%d", row.CostEvals),
			fmt.Sprintf("%d", row.Iters),
		})
	}
	writeTable(w, []string{"param", "value", "skew err [ps]", "recon err", "cost evals", "iters"}, rows)
	fmt.Fprintf(w, "minimiser comparison (blind start vs full bracket): LMS %d evals / %.3f ps vs golden-section %d evals / %.3f ps\n",
		r.LMSEvals, r.LMSErrPS, r.GoldenEvals, r.GoldenErrPS)
}
