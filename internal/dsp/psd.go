package dsp

import (
	"fmt"
	"sort"

	"repro/internal/par"
)

// Spectrum is a one- or two-sided power spectral density estimate.
type Spectrum struct {
	// Freqs holds the frequency of each bin in Hz (monotonically increasing
	// for shifted two-sided spectra).
	Freqs []float64
	// PSD holds the power spectral density in V^2/Hz (assuming the input is
	// in volts at the given sample rate).
	PSD []float64
	// BinWidth is the frequency resolution in Hz.
	BinWidth float64
}

// Len returns the number of bins.
func (s *Spectrum) Len() int { return len(s.Freqs) }

// binRange returns the half-open index range [lo, hi) of bins whose centre
// lies in [f1, f2], located by binary search over the monotonic Freqs axis.
func (s *Spectrum) binRange(f1, f2 float64) (lo, hi int) {
	lo = sort.SearchFloat64s(s.Freqs, f1)
	hi = sort.Search(len(s.Freqs), func(i int) bool { return s.Freqs[i] > f2 })
	return lo, hi
}

// PowerInBand integrates the PSD between f1 and f2 (Hz) and returns the band
// power in V^2. Bins whose centre lies in [f1, f2] contribute fully. The
// bin range comes from a binary search over the monotonic frequency axis,
// so narrow-band queries on long spectra cost O(log n + band), not O(n).
func (s *Spectrum) PowerInBand(f1, f2 float64) float64 {
	if f1 > f2 {
		f1, f2 = f2, f1
	}
	lo, hi := s.binRange(f1, f2)
	p := 0.0
	for i := lo; i < hi; i++ {
		p += s.PSD[i] * s.BinWidth
	}
	return p
}

// PSDdB returns the PSD in dB (10log10), clamped at -400 dB, re 1 V^2/Hz.
func (s *Spectrum) PSDdB() []float64 {
	out := make([]float64, len(s.PSD))
	for i, v := range s.PSD {
		out[i] = PowerDB(v)
	}
	return out
}

// WelchConfig configures Welch's averaged-periodogram PSD estimator. The
// taper is always Hann and consecutive segments overlap by half a segment.
type WelchConfig struct {
	// SegmentLen is the per-segment FFT length (power of two recommended).
	SegmentLen int
}

// DefaultWelch returns the configuration for a segment length.
func DefaultWelch(segmentLen int) WelchConfig {
	return WelchConfig{SegmentLen: segmentLen}
}

// welchParams validates a Welch configuration against the input length and
// returns the window, its power, the hop and the segment count.
func welchParams(inputLen int, cfg WelchConfig) (win []float64, winPow float64, step, segs int, err error) {
	n := cfg.SegmentLen
	if n <= 0 {
		return nil, 0, 0, 0, fmt.Errorf("dsp: Welch: SegmentLen %d <= 0", n)
	}
	if inputLen < n {
		return nil, 0, 0, 0, fmt.Errorf("dsp: Welch: input length %d < segment %d", inputLen, n)
	}
	win = Window(Hann, n, 0)
	for _, w := range win {
		winPow += w * w
	}
	step = n - n/2
	segs = (inputLen-n)/step + 1
	if segs == 0 {
		return nil, 0, 0, 0, fmt.Errorf("dsp: Welch: no complete segments")
	}
	return win, winPow, step, segs, nil
}

// welchAverage fans the segment periodograms out over the par pool and
// folds them into the averaged two-sided PSD.
//
// Determinism contract: every segment writes its |X|^2 into its own row of
// a per-segment partial matrix, and the rows are summed serially in
// segment-index order afterwards. The float reduction tree is therefore a
// fixed left fold independent of scheduling, so the averaged PSD is
// bit-identical at any worker count — the same invariance the cost path
// established in PR 1 — and also bit-identical to the historical serial
// loop (which accumulated segments in the same order).
//
// periodogram must fill pow (length n) with the segment's |X[k]|^2; it is
// called concurrently for distinct segments.
func welchAverage(n, segs int, fs, winPow float64, periodogram func(seg int, pow []float64)) []float64 {
	backing := make([]float64, segs*n)
	par.For(segs, func(s int) {
		periodogram(s, backing[s*n:(s+1)*n])
	})
	acc := make([]float64, n)
	for s := 0; s < segs; s++ {
		row := backing[s*n : (s+1)*n]
		for i, v := range row {
			acc[i] += v
		}
	}
	// PSD normalisation: |X|^2 / (fs * sum(w^2)), averaged over segments.
	norm := 1 / (fs * winPow * float64(segs))
	for i := range acc {
		acc[i] *= norm
	}
	return acc
}

// spectrumFromPSD shifts the natural-order two-sided PSD and builds the
// ascending frequency axis around centre.
func spectrumFromPSD(psd []float64, fs, centre float64) *Spectrum {
	n := len(psd)
	psd = FFTShiftFloat(psd)
	freqs := make([]float64, n)
	df := fs / float64(n)
	for i := range freqs {
		freqs[i] = centre + (float64(i)-float64(n)/2)*df
	}
	return &Spectrum{Freqs: freqs, PSD: psd, BinWidth: df}
}

// WelchComplex estimates the two-sided PSD of a complex baseband sequence
// sampled at fs. centre shifts the frequency axis (pass the carrier to plot
// an RF-referred spectrum). The result is fftshifted so frequencies ascend.
//
// Segments transform through a cached Plan, each in its own buffer, and
// fan out over the par worker pool; the estimate is bit-identical at any
// worker count (see welchAverage).
func WelchComplex(x []complex128, fs, centre float64, cfg WelchConfig) (*Spectrum, error) {
	win, winPow, step, segs, err := welchParams(len(x), cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.SegmentLen
	plan := PlanFFT(n)
	psd := welchAverage(n, segs, fs, winPow, func(s int, pow []float64) {
		buf := make([]complex128, n)
		start := s * step
		for i := 0; i < n; i++ {
			buf[i] = x[start+i] * complex(win[i], 0)
		}
		plan.Execute(buf)
		for i, v := range buf {
			re, im := real(v), imag(v)
			pow[i] = re*re + im*im
		}
	})
	return spectrumFromPSD(psd, fs, centre), nil
}
