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
	return s.PowerInBins(s.binRange(f1, f2))
}

// PowerInBins integrates the PSD over the bins [lo, hi), summed in index
// order: PowerInBand's sum for a bin range the caller already located.
func (s *Spectrum) PowerInBins(lo, hi int) float64 {
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

// segmentPowers returns the segs×n matrix of Hann-windowed segment
// periodograms in natural bin order: row s holds |X[k]|² of the n = len(win)
// samples starting at s·hop, transformed through one cached Plan. Segments
// fan out over the par pool, each writing only its own row, so every row is
// bit-identical at any worker count. Welch and the STFT both call it.
func segmentPowers(x []complex128, win []float64, hop, segs int) []float64 {
	n := len(win)
	plan := PlanFFT(n)
	rows := make([]float64, segs*n)
	par.For(segs, func(s int) {
		buf := make([]complex128, n)
		start := s * hop
		for i := 0; i < n; i++ {
			buf[i] = x[start+i] * complex(win[i], 0)
		}
		plan.Execute(buf)
		row := rows[s*n : (s+1)*n]
		for i, v := range buf {
			re, im := real(v), imag(v)
			row[i] = re*re + im*im
		}
	})
	return rows
}

// WelchComplex estimates the two-sided PSD of a complex baseband sequence
// sampled at fs. centre shifts the frequency axis (pass the carrier to plot
// an RF-referred spectrum). The result is fftshifted so frequencies ascend.
//
// Determinism contract: the segment periodograms (segmentPowers) are
// summed serially in segment-index order, a fixed left fold independent of
// scheduling, so the averaged PSD is bit-identical at any worker count and
// to a serial loop that accumulates segments in the same order.
func WelchComplex(x []complex128, fs, centre float64, cfg WelchConfig) (*Spectrum, error) {
	n := cfg.SegmentLen
	if n <= 0 {
		return nil, fmt.Errorf("dsp: Welch: SegmentLen %d <= 0", n)
	}
	if len(x) < n {
		return nil, fmt.Errorf("dsp: Welch: input length %d < segment %d", len(x), n)
	}
	win := Window(Hann, n, 0)
	winPow := 0.0
	for _, w := range win {
		winPow += w * w
	}
	step := n - n/2
	segs := (len(x)-n)/step + 1
	rows := segmentPowers(x, win, step, segs)
	psd := make([]float64, n)
	for s := 0; s < segs; s++ {
		for i, v := range rows[s*n : (s+1)*n] {
			psd[i] += v
		}
	}
	// PSD normalisation: |X|^2 / (fs * sum(w^2)), averaged over segments,
	// then shifted onto the ascending axis around centre.
	norm := 1 / (fs * winPow * float64(segs))
	for i := range psd {
		psd[i] *= norm
	}
	freqs := make([]float64, n)
	df := fs / float64(n)
	for i := range freqs {
		freqs[i] = centre + (float64(i)-float64(n)/2)*df
	}
	return &Spectrum{Freqs: freqs, PSD: FFTShiftFloat(psd), BinWidth: df}, nil
}
