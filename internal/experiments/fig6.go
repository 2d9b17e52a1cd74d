package experiments

import (
	"fmt"
	"io"

	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/skew"
)

var tnFig6 = trace.Intern("experiments.fig6")

// Fig6Trace is one LMS run from a given starting estimate.
type Fig6Trace struct {
	D0     float64
	Result skew.LMSResult
}

// Fig6Result collects the Fig. 6 convergence traces.
type Fig6Result struct {
	DTrue  float64
	Traces []Fig6Trace
}

// RunFig6 regenerates Fig. 6: the LMS cost evolution for starting estimates
// D-hat_0 in {50, 100, 350, 400} ps with mu_0 = 1 ps, converging in < 20
// iterations for every start.
func RunFig6(s PaperSetup, starts []float64, nB int) (*Fig6Result, error) {
	if len(starts) == 0 {
		starts = []float64{50e-12, 100e-12, 350e-12, 400e-12}
	}
	if nB <= 0 {
		nB = 220
	}
	ce, _, actualD, err := s.Acquire(nB, 0)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{DTrue: actualD}
	// Each trace is an independent descent on the shared evaluator (Cost is
	// concurrency-safe); the traces fan out over the pool and land in
	// start-estimate order. Under a trace recording the sweep runs inside an
	// "experiments.fig6" root span, each descent contributing its own
	// skew.lms subtree and per-start counter tracks.
	sp := trace.Start(trace.Root, tnFig6)
	sp.SetInt("starts", int64(len(starts)))
	traces, err := par.MapErrCtx(sp.Ctx(), len(starts), func(taskCtx trace.Ctx, i int) (Fig6Trace, error) {
		d0 := starts[i]
		r, err := skew.EstimateLMS(taskCtx, ce.Cost, d0, ce.M())
		if err != nil {
			return Fig6Trace{}, fmt.Errorf("experiments: LMS from %g: %w", d0, err)
		}
		return Fig6Trace{D0: d0, Result: r}, nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Traces = traces
	return res, nil
}

// Render prints the cost-vs-iteration series for each start.
func (r *Fig6Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6 — LMS cost evolution for several starting estimates (true D = 180 ps)")
	maxLen := 0
	for _, tr := range r.Traces {
		if len(tr.Result.CostHistory) > maxLen {
			maxLen = len(tr.Result.CostHistory)
		}
	}
	header := []string{"iter"}
	for _, tr := range r.Traces {
		header = append(header, fmt.Sprintf("D0=%.0f ps", tr.D0*1e12))
	}
	rows := make([][]string, 0, maxLen)
	for i := 0; i < maxLen; i++ {
		row := []string{fmt.Sprintf("%d", i)}
		for _, tr := range r.Traces {
			if i < len(tr.Result.CostHistory) {
				row = append(row, fmt.Sprintf("%.6g", tr.Result.CostHistory[i]))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
	// Fig. 6 as a plot: one marker per trace.
	yMax := 0.0
	for _, tr := range r.Traces {
		for _, c := range tr.Result.CostHistory {
			if c > yMax {
				yMax = c
			}
		}
	}
	plot := newAsciiPlot(60, 14, 0, float64(maxLen-1), 0, yMax*1.05, "iteration", "cost")
	markers := []byte{'a', 'b', 'c', 'd'}
	for ti, tr := range r.Traces {
		for i, c := range tr.Result.CostHistory {
			plot.mark(float64(i), c, markers[ti%len(markers)])
		}
	}
	plot.render(w)
	for _, tr := range r.Traces {
		fmt.Fprintf(w, "D0 = %3.0f ps -> D-hat = %.3f ps in %d iterations (err %.3f ps)\n",
			tr.D0*1e12, tr.Result.DHat*1e12, tr.Result.Iterations,
			abs(tr.Result.DHat-r.DTrue)*1e12)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
