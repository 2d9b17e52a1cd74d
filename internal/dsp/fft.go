// Package dsp provides the digital signal processing substrate used by the
// PNBS-BIST reproduction: FFTs, window functions, FIR design and filtering,
// power spectral density estimation, tone extraction and small numerical
// helpers. It replaces the Matlab toolbox functions used by the paper and is
// implemented with the standard library only.
package dsp

import (
	"math"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics for n <= 0
// or when the result would overflow an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("dsp: NextPowerOfTwo requires n > 0")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic("dsp: NextPowerOfTwo overflow")
	}
	return p
}

// FFT computes the fast Fourier transform of x: radix-2 for power-of-two
// lengths, Bluestein chirp-z otherwise. The input slice is not modified; a
// new slice holding X[k] = sum_n x[n] exp(-i 2 pi k n / N) is returned.
// The transform runs through the shared plan cache (see Plan), so repeated
// calls at one size pay the twiddle trigonometry only once; callers on a
// hot path can hold the plan themselves and use Execute to skip the output
// allocation too.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	PlanFFT(n).ExecuteInto(out, x)
	return out
}

// IFFT computes the inverse discrete Fourier transform with 1/N scaling so
// that IFFT(FFT(x)) == x up to rounding. Like FFT it is a thin wrapper
// over the plan cache.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	cachedPlan(n, true).ExecuteInto(out, x)
	scale := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// fftRadix2 performs an in-place iterative radix-2 FFT, evaluating each
// twiddle with math.Sincos inside the butterfly loop. It is retained as
// the direct oracle the plan engine is fuzzed against (FuzzPlanVsDirect):
// a Plan must reproduce it bit for bit.
// inverse selects the conjugate (un-normalised inverse) transform.
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	if n < 2 {
		return
	}
	// Bit-reversal permutation.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// Twiddle generation by recurrence would accumulate error over
		// long runs; direct evaluation keeps the transform accurate for
		// the modest sizes (<= 2^22) used here.
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				s, c := math.Sincos(step * float64(k))
				w := complex(c, s)
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
	}
}

// RealFFTHalf computes the one-sided spectrum of a real sequence: bins
// 0..n/2 inclusive (length n/2+1). For real input the remaining bins are
// the conjugate mirror, so this is the whole information content. The
// input widens to []complex128 and runs through the shared complex plan.
func RealFFTHalf(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	PlanFFT(n).Execute(out)
	return out[:n/2+1]
}

// FFTShiftFloat reorders a real-valued spectrum (e.g. a PSD estimate) so
// that the zero-frequency bin sits at the centre, mirroring Matlab's
// fftshift. Works for even and odd lengths.
func FFTShiftFloat(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	h := (n + 1) / 2
	copy(out, x[h:])
	copy(out[n-h:], x[:h])
	return out
}

// DTFT evaluates the discrete-time Fourier transform of x at the normalised
// frequency nu (cycles per sample): X(nu) = sum_n x[n] exp(-i 2 pi nu n).
// It is the direct O(N) sum, for arbitrary frequencies and short sequences.
func DTFT(x []float64, nu float64) complex128 {
	var acc complex128
	for n, v := range x {
		phi := -2 * math.Pi * nu * float64(n)
		s, c := math.Sincos(phi)
		acc += complex(v*c, v*s)
	}
	return acc
}
