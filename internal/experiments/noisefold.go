package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/pnbs"
	"repro/internal/sig"
	"repro/internal/skew"
)

// NoiseFoldResult quantifies the paper's Section II-B.3 "Wideband Noise"
// remark: unlike an analog downconversion receiver, a bandpass-sampling
// front end folds out-of-band thermal noise into the band of interest.
type NoiseFoldResult struct {
	// InBandNoisePower is the input noise power falling inside the capture
	// band (what an ideal analog receiver would see).
	InBandNoisePower float64
	// TotalNoisePower is the full wideband input noise power.
	TotalNoisePower float64
	// ReconNoisePower is the noise power observed on the reconstruction.
	ReconNoisePower float64
	// FoldingPenaltyDB is 10 log10(ReconNoise / InBandNoise): the SNR cost
	// of subsampling relative to an analog receiver.
	FoldingPenaltyDB float64
	// CapturePenaltyDB compares reconstructed noise to total input noise
	// (how much of the wideband noise survives into the band; ~0 dB means
	// everything folds in).
	CapturePenaltyDB float64
	// SignalErr is the relative reconstruction error of the in-band test
	// tone under the wideband noise (the paper argues it stays small at
	// high signal levels).
	SignalErr float64
}

// RunNoiseFold reconstructs an in-band tone of the paper band in the
// presence of wideband noise of total power 1e-4 occupying [0.9, 1.9] GHz,
// using ideal converters so the folding effect is isolated.
func RunNoiseFold() (*NoiseFoldResult, error) {
	const noiseLo, noiseHi, noisePower = 0.9e9, 1.9e9, 1e-4
	paper := core.PaperScenario()
	band, d := paper.Band(), paper.NominalD
	tt := band.T()
	n := 500
	tone := &sig.Tone{Amp: 1, Freq: 1.004e9, Phase: 0.2}
	noise := sig.NewBandNoise(noiseLo, noiseHi, noisePower, 400, 404)
	noisy := sig.Sum{tone, noise}
	sample := func(x sig.Signal) (ch0, ch1 []float64) {
		ch0 = make([]float64, n)
		ch1 = make([]float64, n)
		for i := 0; i < n; i++ {
			ch0[i] = x.At(float64(i) * tt)
			ch1[i] = x.At(float64(i)*tt + d)
		}
		return ch0, ch1
	}
	c0, c1 := sample(noisy)
	r0, r1 := sample(tone)
	opt := pnbs.Options{}
	recNoisy, err := pnbs.NewReconstructor(band, d, 0, c0, c1, opt)
	if err != nil {
		return nil, err
	}
	recClean, err := pnbs.NewReconstructor(band, d, 0, r0, r1, opt)
	if err != nil {
		return nil, err
	}
	lo, hi := recNoisy.ValidRange()
	times := skew.RandomTimes(lo+0.05*(hi-lo), hi-0.05*(hi-lo), 400, 11)
	var noisePow, sigPow, errPow float64
	for _, tv := range times {
		vN := recNoisy.At(tv)
		vC := recClean.At(tv)
		dn := vN - vC // reconstructed noise component
		noisePow += dn * dn
		ref := tone.At(tv)
		sigPow += ref * ref
		e := vN - ref
		errPow += e * e
	}
	noisePow /= float64(len(times))
	sigPow /= float64(len(times))
	errPow /= float64(len(times))

	// Input noise inside the capture band (analytic: uniform PSD).
	overlap := overlapWidth(noiseLo, noiseHi, band.FLow, band.FHigh())
	inBand := noisePower * overlap / (noiseHi - noiseLo)
	res := &NoiseFoldResult{
		InBandNoisePower: inBand,
		TotalNoisePower:  noisePower,
		ReconNoisePower:  noisePow,
		SignalErr:        sqrtRatio(errPow, sigPow),
	}
	if inBand > 0 {
		res.FoldingPenaltyDB = 10 * math.Log10(noisePow/inBand)
	} else {
		res.FoldingPenaltyDB = 400
	}
	res.CapturePenaltyDB = 10 * math.Log10(noisePow/noisePower)
	return res, nil
}

func overlapWidth(aLo, aHi, bLo, bHi float64) float64 {
	lo := aLo
	if bLo > lo {
		lo = bLo
	}
	hi := aHi
	if bHi < hi {
		hi = bHi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func sqrtRatio(num, den float64) float64 {
	if den <= 0 || num <= 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// Render prints the comparison.
func (r *NoiseFoldResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Wideband-noise folding (paper Section II-B.3)")
	rows := [][]string{
		{"input noise power (total)", fmt.Sprintf("%.4g", r.TotalNoisePower)},
		{"input noise power in band", fmt.Sprintf("%.4g", r.InBandNoisePower)},
		{"reconstructed noise power", fmt.Sprintf("%.4g", r.ReconNoisePower)},
		{"folding penalty vs analog receiver", fmt.Sprintf("%.1f dB", r.FoldingPenaltyDB)},
		{"reconstructed/total input noise", fmt.Sprintf("%.1f dB", r.CapturePenaltyDB)},
		{"in-band tone reconstruction error", pct(r.SignalErr)},
	}
	writeTable(w, []string{"quantity", "value"}, rows)
	fmt.Fprintln(w, "Out-of-band noise folds into the reconstruction (penalty >> 0 dB), but the high-level signal test is barely affected — the paper's argument for accepting bandpass sampling in a Tx BIST.")
}
