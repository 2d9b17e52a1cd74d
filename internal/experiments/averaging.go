package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/skew"
)

// AveragingRow is one point of the multi-capture averaging sweep.
type AveragingRow struct {
	Captures  int
	SkewErrPS float64
	CostEvals int
}

// AveragingResult shows how averaging K independent captures shrinks the
// jitter-limited delay-estimation error. Averaging removes the
// jitter-noise VARIANCE of the empirical cost minimum (~1/sqrt(K)); a
// small residual BIAS of order sigma_j^2 remains because the expected
// jitter-noise power itself depends weakly on the delay estimate —
// reaching the paper's <0.1 ps regime therefore needs both averaging and a
// cleaner clock (see the jitter ablation).
type AveragingResult struct {
	Rows []AveragingRow
}

// RunAveraging sweeps the capture count. All captures share the DUT and the
// true delay; jitter and quantization noise are independent per capture.
func RunAveraging(ks []int) (*AveragingResult, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16}
	}
	s := DefaultPaperSetup()
	t := core.PaperScenario().Band().T()
	res := &AveragingResult{}
	for _, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("experiments: capture count %d invalid", k)
		}
		evals := make([]*skew.CostEvaluator, 0, k)
		var actualD float64
		for j := 0; j < k; j++ {
			sj := s
			sj.Seed = s.Seed + int64(j)*101 // independent jitter per capture
			// Stagger successive captures by an irrational fraction of the
			// sample period to decorrelate quantization error.
			ce, _, d, err := sj.Acquire(220, float64(j)*0.381966*t)
			if err != nil {
				return nil, err
			}
			actualD = d
			evals = append(evals, ce)
		}
		mc, err := skew.NewMultiCost(evals)
		if err != nil {
			return nil, err
		}
		r, err := skew.EstimateLMS(trace.Root, mc.Cost, 100e-12, mc.M())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AveragingRow{
			Captures:  k,
			SkewErrPS: math.Abs(r.DHat-actualD) * 1e12,
			CostEvals: r.CostEvals,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AveragingResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Multi-capture averaging — jitter-limited skew error vs capture count")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Captures),
			fmt.Sprintf("%.3f", row.SkewErrPS),
			fmt.Sprintf("%d", row.CostEvals),
		})
	}
	writeTable(w, []string{"captures K", "skew err [ps]", "cost evals"}, rows)
	fmt.Fprintln(w, "Averaging removes the variance part of the error; the remaining few tenths of a ps is a jitter-induced bias (~sigma_j^2) of the cost minimum itself, which only a cleaner sampling clock removes (see 'bistlab ablate', jitterPS sweep).")
}
