package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/par"
	"repro/internal/pnbs"
)

// DSweepResult maps delay choices to kernel coefficient magnitudes
// (Section II-B.1): coefficients blow up as D approaches nT/k or nT/(k+1)
// and are smallest near D = 1/(4 fc).
type DSweepResult struct {
	Band      pnbs.Band
	Ds        []float64
	Metric    []float64
	Forbidden []float64
	OptimalD  float64
	BestD     float64
}

// RunDSweep sweeps D over (0, 520 ps] with nPts points (0 = 104) for the
// given band.
func RunDSweep(band pnbs.Band, nPts int) (*DSweepResult, error) {
	const maxD = 520e-12
	if _, err := pnbs.NewBand(band.FLow, band.B); err != nil {
		return nil, err
	}
	if nPts <= 1 {
		nPts = 104
	}
	res := &DSweepResult{
		Band:      band,
		Forbidden: band.ForbiddenD(maxD),
		OptimalD:  band.OptimalD(),
		Ds:        make([]float64, nPts),
		Metric:    make([]float64, nPts),
	}
	// Independent sweep points fan out over the pool; the argmin scan runs
	// serially afterwards so ties keep resolving to the lowest delay.
	par.For(nPts, func(i int) {
		d := maxD * float64(i+1) / float64(nPts)
		res.Ds[i] = d
		res.Metric[i] = pnbs.CoefficientMetric(band, d)
	})
	best := math.Inf(1)
	for i, m := range res.Metric {
		if m < best {
			best = m
			res.BestD = res.Ds[i]
		}
	}
	return res, nil
}

// Render prints the sweep.
func (r *DSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Delay sweep — kernel coefficient metric vs D (band %.0f-%.0f MHz)\n",
		r.Band.FLow/1e6, r.Band.FHigh()/1e6)
	rows := make([][]string, 0, len(r.Ds))
	for i := range r.Ds {
		m := r.Metric[i]
		ms := fmt.Sprintf("%.3f", m)
		if math.IsInf(m, 1) || m > 1e6 {
			ms = "unstable"
		}
		rows = append(rows, []string{ps(r.Ds[i]) + " ps", ms})
	}
	writeTable(w, []string{"D", "1/|sin(k pi B D)| + 1/|sin(k+ pi B D)|"}, rows)
	fmt.Fprintf(w, "forbidden delays (Eq. 3):")
	for _, d := range r.Forbidden {
		fmt.Fprintf(w, " %.1f ps", d*1e12)
	}
	fmt.Fprintf(w, "\noptimal D = 1/(4 fc) = %.1f ps; sweep minimum at %.1f ps\n",
		r.OptimalD*1e12, r.BestD*1e12)
}
