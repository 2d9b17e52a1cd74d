package dsp

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/par"
)

// FIR is a finite impulse response filter described by its tap vector.
// Use it by pointer: it carries a concurrency-safe cache.
type FIR struct {
	Taps []float64
	// spectra caches the forward FFT of the zero-padded taps per transform
	// size (int -> *tapSpectrum) for Filter's fast path, so a shared filter
	// applied to many same-length inputs transforms its taps once. Each
	// entry keeps the taps it was computed from and is rebuilt if Taps has
	// since been edited.
	spectra sync.Map
}

// tapSpectrum is one cached tap transform and the taps it came from.
type tapSpectrum struct {
	taps []float64
	spec []complex128
}

// tapSpectrum returns the forward transform of the zero-padded taps at the
// plan's size, from the cache when the taps are unchanged. Concurrent
// misses compute the same values, so whichever entry lands is correct.
func (f *FIR) tapSpectrum(fwd *Plan) []complex128 {
	if v, ok := f.spectra.Load(fwd.Len()); ok {
		if ts := v.(*tapSpectrum); slices.Equal(ts.taps, f.Taps) {
			return ts.spec
		}
	}
	ts := &tapSpectrum{taps: slices.Clone(f.Taps), spec: padSpectrum(fwd, f.Taps)}
	f.spectra.Store(fwd.Len(), ts)
	return ts.spec
}

// DesignLowpass designs a linear-phase lowpass FIR by the windowed-sinc
// method. cutoff is the -6 dB edge in cycles/sample (0 < cutoff < 0.5),
// numTaps must be >= 1. The window type and Kaiser beta follow Window.
func DesignLowpass(numTaps int, cutoff float64, w WindowType, beta float64) (*FIR, error) {
	if numTaps < 1 {
		return nil, fmt.Errorf("dsp: DesignLowpass: numTaps %d < 1", numTaps)
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("dsp: DesignLowpass: cutoff %g outside (0, 0.5)", cutoff)
	}
	win := Window(w, numTaps, beta)
	taps := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	for i := range taps {
		taps[i] = 2 * cutoff * Sinc(2*cutoff*(float64(i)-mid)) * win[i]
	}
	f := &FIR{Taps: taps}
	f.normalizeDC()
	return f, nil
}

// normalizeDC scales the taps for unity gain at DC.
func (f *FIR) normalizeDC() {
	s := 0.0
	for _, t := range f.Taps {
		s += t
	}
	if s == 0 {
		return
	}
	for i := range f.Taps {
		f.Taps[i] /= s
	}
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.Taps) }

// Filter convolves x with the filter and returns the "same"-length output,
// aligned so that out[n] corresponds to x[n] delayed by the group delay.
func (f *FIR) Filter(x []float64) []float64 {
	var full []float64
	if len(x)*len(f.Taps) <= directConvMax {
		full = Convolve(x, f.Taps)
	} else {
		full = fftConvolve(x, len(f.Taps), f.tapSpectrum)
	}
	d := (len(f.Taps) - 1) / 2
	out := make([]float64, len(x))
	copy(out, full[d:d+len(x)])
	return out
}

// FilterComplex applies the real-tap filter independently to the real and
// imaginary parts of x ("same" alignment as Filter). The two halves are
// independent, so they are filtered concurrently on the par pool.
func (f *FIR) FilterComplex(x []complex128) []complex128 {
	re := make([]float64, len(x))
	im := make([]float64, len(x))
	for i, v := range x {
		re[i] = real(v)
		im[i] = imag(v)
	}
	var fr, fi []float64
	par.For(2, func(i int) {
		if i == 0 {
			fr = f.Filter(re)
		} else {
			fi = f.Filter(im)
		}
	})
	out := make([]complex128, len(x))
	for i := range out {
		out[i] = complex(fr[i], fi[i])
	}
	return out
}

// Decimate lowpass-filters x and keeps every factor-th sample. The filter
// must already be designed with an appropriate cutoff (< 0.5/factor).
func (f *FIR) Decimate(x []complex128, factor int) []complex128 {
	if factor < 1 {
		panic("dsp: Decimate factor must be >= 1")
	}
	y := f.FilterComplex(x)
	out := make([]complex128, 0, len(y)/factor+1)
	for i := 0; i < len(y); i += factor {
		out = append(out, y[i])
	}
	return out
}
