package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/pnbs"
)

// FilterRespResult characterises the practical reconstruction filter of
// Eq. (6): the effective frequency response of the truncated, windowed
// Kohlenberg interpolation for several filter lengths.
type FilterRespResult struct {
	Band pnbs.Band
	// Taps[i] is the filter length (2*half+1); Ripple[i]/Stopband[i] the
	// in-band worst gain error and out-of-band worst leakage (dB).
	Taps     []int
	Ripple   []float64
	Stopband []float64
	// Points holds the full response for the paper's 61-tap filter.
	Points []pnbs.ResponsePoint
}

// RunFilterResp measures the reconstruction transfer function for the paper
// band at a few tap counts, probing across and beyond the band.
func RunFilterResp() (*FilterRespResult, error) {
	paper := core.PaperScenario()
	band, d := paper.Band(), paper.NominalD
	inBand := dsp.Linspace(band.FLow+2e6, band.FHigh()-2e6, 13)
	outBand := []float64{0.80e9, 0.88e9, 0.93e9, 1.07e9, 1.12e9, 1.2e9}
	probes := append(append([]float64{}, inBand...), outBand...)
	res := &FilterRespResult{Band: band}
	for _, half := range []int{10, 20, 30, 45, 60} {
		pts, err := pnbs.FrequencyResponse(band, d, pnbs.Options{HalfTaps: half}, probes)
		if err != nil {
			return nil, err
		}
		res.Taps = append(res.Taps, 2*half+1)
		res.Ripple = append(res.Ripple, pnbs.PassbandRipple(pts, band))
		res.Stopband = append(res.Stopband, pnbs.StopbandRejection(pts, band))
		if half == 30 {
			res.Points = pts
		}
	}
	return res, nil
}

// Render prints the summary table and the 61-tap response trace.
func (r *FilterRespResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Reconstruction-filter response vs length (Eq. 6 truncation, Kaiser beta 8)")
	rows := make([][]string, 0, len(r.Taps))
	for i := range r.Taps {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Taps[i]),
			fmt.Sprintf("%.4f", r.Ripple[i]),
			fmt.Sprintf("%.1f", r.Stopband[i]),
		})
	}
	writeTable(w, []string{"taps", "passband ripple [dB]", "worst stopband [dB]"}, rows)
	fmt.Fprintln(w, "\n61-tap response (the paper's configuration):")
	rows = rows[:0]
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.Freq/1e6),
			fmt.Sprintf("%.3f", p.GainDB),
		})
	}
	writeTable(w, []string{"probe [MHz]", "gain [dB]"}, rows)
}
