package dsp

import (
	"fmt"

	"repro/internal/par"
)

// FIR is a finite impulse response filter described by its tap vector.
type FIR struct {
	Taps []float64
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

// decimateChunk is the number of kept outputs one par task computes.
const decimateChunk = 256

// Decimate lowpass-filters x and keeps every factor-th sample. Output k is
// the "same"-aligned filter output at input index k·factor,
//
//	out[k] = Σ_j Taps[j] · x[k·factor + d − j],  d = (len(Taps) − 1)/2,
//
// with x taken as zero outside [0, len(x)); there are ceil(len(x)/factor)
// outputs. Only the kept outputs are computed, each as its own serial sum
// over the taps (the polyphase form of filter-then-discard), so the result
// is bit-identical at any worker count. The filter must already be
// designed with an appropriate cutoff (< 0.5/factor).
func (f *FIR) Decimate(x []complex128, factor int) []complex128 {
	if factor < 1 {
		panic("dsp: Decimate factor must be >= 1")
	}
	out := make([]complex128, (len(x)+factor-1)/factor)
	par.ForChunks(len(out), decimateChunk, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out[k] = f.DecimateAt(x, 0, len(x), factor, k)
		}
	})
	return out
}

// DecimateAt returns output k of Decimate(·, factor) over a signal of n
// samples of which x holds samples x0 .. x0+len(x)−1; x must cover every
// sample of [0, n) that output k's taps meet. It is Decimate's own sum, so
// a caller that holds only part of the signal gets Decimate's bits.
func (f *FIR) DecimateAt(x []complex128, x0, n, factor, k int) complex128 {
	taps := f.Taps
	// Taps jLo..jHi meet samples c−jLo down to c−jHi; the reslice tells
	// the compiler the two windows have one length.
	c := k*factor + (len(taps)-1)/2
	jLo, jHi := max(0, c-n+1), min(len(taps)-1, c)
	tp := taps[jLo : jHi+1]
	xs := x[c-jHi-x0 : c-jLo+1-x0]
	xs = xs[:len(tp)]
	var re, im float64
	for j, t := range tp {
		v := xs[len(xs)-1-j]
		re += t * real(v)
		im += t * imag(v)
	}
	return complex(re, im)
}
