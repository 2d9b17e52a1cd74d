package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dsp"
	"repro/internal/pnbs"
)

// Fig3aResult holds the PBS constraint wedges of Fig. 3a: for each wrap
// factor n, the lower/upper alias-free boundaries of fs/B versus fH/B.
type Fig3aResult struct {
	FhOverB []float64
	Curves  map[int][2][]float64
	NMax    int
}

// RunFig3a samples the normalised constraint diagram over fH/B in [1, 7]
// (the paper's axis) at nPts points (0 = 61) for the wedges n = 1..3.
func RunFig3a(nPts int) *Fig3aResult {
	const nMax = 3
	if nPts <= 1 {
		nPts = 61
	}
	axis := dsp.Linspace(1, 7, nPts)
	return &Fig3aResult{
		FhOverB: axis,
		Curves:  pnbs.BoundaryCurves(axis, nMax),
		NMax:    nMax,
	}
}

// Render prints the boundary series (one row per axis point).
func (r *Fig3aResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 3a — PBS alias-free wedges (normalised): fs/B bounds per wrap factor n")
	header := []string{"fH/B"}
	for n := 1; n <= r.NMax; n++ {
		header = append(header, fmt.Sprintf("n=%d lo", n), fmt.Sprintf("n=%d hi", n))
	}
	rows := make([][]string, 0, len(r.FhOverB))
	for i, x := range r.FhOverB {
		row := []string{fmt.Sprintf("%.2f", x)}
		for n := 1; n <= r.NMax; n++ {
			c := r.Curves[n]
			lo, hi := c[0][i], c[1][i]
			loS := fmt.Sprintf("%.3f", lo)
			hiS := "inf"
			if !math.IsInf(hi, 1) {
				hiS = fmt.Sprintf("%.3f", hi)
			}
			if !math.IsInf(hi, 1) && hi < lo {
				loS, hiS = "-", "-" // wedge closed at this fH/B
			}
			row = append(row, loS, hiS)
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
	fmt.Fprintln(w, "Closed wedges ('-') alias for every fs in that family; the minimum ideal rate is fs/B = 2 (PNBS achieves it for every fH/B).")

	// Region map in the style of Fig. 3a: '#' where uniform sampling
	// aliases, ' ' where it is safe, '=' the PNBS minimal-rate line.
	fmt.Fprintln(w, "\nregion map (x: fH/B in [1,7], y: fs/B in [0,8]):")
	plot := newAsciiPlot(64, 20, 1, 7, 0, 8, "fH/B", "fs/B")
	for ix := 0; ix < 64; ix++ {
		r := 1 + 6*float64(ix)/63
		band := pnbs.Band{FLow: (r - 1) * 1e6, B: 1e6} // normalised: B = 1
		if band.FLow <= 0 {
			continue
		}
		for iy := 0; iy < 20; iy++ {
			fs := 8 * float64(iy) / 19
			if fs <= 0 {
				continue
			}
			aliases, err := pnbs.Aliases(band, fs*1e6)
			if err == nil && aliases {
				plot.mark(r, fs, '#')
			}
		}
	}
	for ix := 0; ix < 64; ix++ {
		plot.mark(1+6*float64(ix)/63, 2, '=')
	}
	plot.render(w)
	fmt.Fprintln(w, "'#': aliasing; blank: alias-free PBS; '=': the PNBS rate 2B, valid everywhere.")
}

// Fig3bResult lists the feasible uniform subsampling windows for the
// paper's fH = 2.03 GHz, B = 30 MHz example between 60 and 100 MHz.
type Fig3bResult struct {
	Band    pnbs.Band
	Windows []pnbs.RateWindow
}

// RunFig3b computes the Fig. 3b windows.
func RunFig3b() (*Fig3bResult, error) {
	band := pnbs.Band{FLow: 2e9, B: 30e6}
	wins, err := pnbs.WindowsInRange(band, 60e6, 100e6)
	if err != nil {
		return nil, err
	}
	return &Fig3bResult{Band: band, Windows: wins}, nil
}

// Render prints the windows with their clock-precision budgets.
func (r *Fig3bResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 3b — alias-free uniform rates for fH = %.3f GHz, B = %.0f MHz, fs in [60, 100] MHz\n",
		r.Band.FHigh()/1e9, r.Band.B/1e6)
	rows := make([][]string, 0, len(r.Windows))
	for _, win := range r.Windows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", win.N),
			mhz(win.Lo), mhz(win.Hi),
			fmt.Sprintf("%.1f", win.Width()/1e3),
			fmt.Sprintf("%.1f", pnbs.RequiredClockPrecision(win)/1e3),
		})
	}
	writeTable(w, []string{"n", "fs lo [MHz]", "fs hi [MHz]", "width [kHz]", "+-precision [kHz]"}, rows)
	fmt.Fprintln(w, "Near fs = 2B the budget is a few kHz; even near 90 MHz it is a few hundred kHz — the paper's fragility argument for PBS.")
}
