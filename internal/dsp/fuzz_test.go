package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

// floatsFromBytes decodes data into at most maxN sanitized float64 samples:
// non-finite values become 0 and magnitudes fold into [-8, 8] so a fuzzed
// bit pattern cannot trivially overflow the transforms.
func floatsFromBytes(data []byte, maxN int) []float64 {
	n := len(data) / 8
	if n > maxN {
		n = maxN
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		} else if math.Abs(v) > 8 {
			v = math.Remainder(v, 8)
		}
		out[i] = v
	}
	return out
}

func complexFromFloats(vals []float64) []complex128 {
	x := make([]complex128, len(vals)/2)
	for i := range x {
		x[i] = complex(vals[2*i], vals[2*i+1])
	}
	return x
}

func seedBytes(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

// FuzzFFTRoundtrip checks IFFT(FFT(x)) == x and Parseval's identity for
// arbitrary inputs of arbitrary length, covering both the radix-2 and the
// Bluestein path.
func FuzzFFTRoundtrip(f *testing.F) {
	f.Add(seedBytes(1, 0, -1, 0, 0.5, -0.25, 3, 3))                 // length 4: radix-2
	f.Add(seedBytes(1, 2, 3, 4, 5, 6))                              // length 3: Bluestein
	f.Add(seedBytes(0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8, 1)) // length 4 + spare
	f.Add(seedBytes(math.Inf(1), math.NaN(), 1e300, -1e-300))       // sanitizer path
	f.Fuzz(func(t *testing.T, data []byte) {
		x := complexFromFloats(floatsFromBytes(data, 128))
		if len(x) == 0 {
			t.Skip()
		}
		X := FFT(x)
		if len(X) != len(x) {
			t.Fatalf("FFT changed length: %d -> %d", len(x), len(X))
		}
		back := IFFT(X)
		scale := 1.0
		var pt, pf float64
		for i := range x {
			if a := cmplx.Abs(x[i]); a > scale {
				scale = a
			}
			pt += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			pf += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		tol := 1e-9 * scale * float64(len(x))
		for i := range x {
			if d := cmplx.Abs(back[i] - x[i]); d > tol {
				t.Fatalf("n=%d: roundtrip error %g at %d exceeds %g", len(x), d, i, tol)
			}
		}
		pf /= float64(len(x))
		if math.Abs(pt-pf) > 1e-9*(pt+1)*float64(len(x)) {
			t.Fatalf("n=%d: Parseval violated: time %g vs freq %g", len(x), pt, pf)
		}
	})
}

// FuzzBluesteinVsRadix2 differentially tests the chirp-z transform against
// the radix-2 FFT on power-of-two lengths, where both are defined.
func FuzzBluesteinVsRadix2(f *testing.F) {
	f.Add(seedBytes(1, 0, 0, 1, -1, 0, 0, -1))
	f.Add(seedBytes(0.5, 0.5, 0.5, 0.5, 1, 2, 3, 4, 5, 6, 7, 8, -1, -2, -3, -4))
	f.Add(seedBytes(2, -3))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := floatsFromBytes(data, 256)
		x := complexFromFloats(vals)
		// Truncate to the largest power-of-two length.
		n := 1
		for 2*n <= len(x) {
			n *= 2
		}
		if len(x) < 2 {
			t.Skip()
		}
		x = x[:n]
		want := FFT(x) // radix-2 path for power-of-two n
		got := make([]complex128, n)
		copy(got, x)
		got = bluestein(got, false)
		scale := 1.0
		for _, v := range x {
			scale += cmplx.Abs(v)
		}
		tol := 1e-9 * scale * float64(n)
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > tol {
				t.Fatalf("n=%d bin %d: bluestein %v vs radix-2 %v (diff %g > %g)",
					n, i, got[i], want[i], d, tol)
			}
		}
	})
}

// planSeed encodes a FuzzPlanVsDirect input: a little-endian uint16
// transform length followed by float64 samples that are cycled to fill it.
func planSeed(n int, vals ...float64) []byte {
	b := make([]byte, 2+8*len(vals))
	binary.LittleEndian.PutUint16(b, uint16(n))
	copy(b[2:], seedBytes(vals...))
	return b
}

// FuzzPlanVsDirect differentially tests the cached plan engine against the
// retained direct oracle (sincos-per-butterfly radix-2, per-call-chirp
// Bluestein) across mixed power-of-two and Bluestein lengths, in both
// directions. The contract is exact: a plan reproduces the direct
// transform bit for bit. Each case also executes the plan twice to
// exercise cache and scratch reuse.
func FuzzPlanVsDirect(f *testing.F) {
	for _, n := range []int{1, 2, 3, 12, 64, 1000, 4096} {
		f.Add(planSeed(n, 1, -0.5, 0.25, 3, -2, 0.125, 7, -0.75))
	}
	f.Add(planSeed(255, 1e6, -1e-6))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		n := int(binary.LittleEndian.Uint16(data))%4096 + 1
		vals := floatsFromBytes(data[2:], 64)
		if len(vals) < 2 {
			t.Skip()
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(vals[(2*i)%len(vals)], vals[(2*i+1)%len(vals)])
		}
		for _, inverse := range []bool{false, true} {
			want := directFFT(x, inverse)
			p := cachedPlan(n, inverse)
			got := make([]complex128, n)
			p.ExecuteInto(got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v bin %d: plan %v != direct %v",
						n, inverse, i, got[i], want[i])
				}
			}
			// Second execution on the same plan: scratch reuse must not
			// perturb the result.
			p.ExecuteInto(got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v bin %d: repeat Execute diverged", n, inverse, i)
				}
			}
		}
	})
}

// FuzzFIRLinearity checks the defining property of an LTI filter on fuzzed
// signals and mixing coefficients: Decimate(a x + b y) == a Decimate(x) +
// b Decimate(y) up to rounding, at a decimation factor in 1..4 picked
// from the signal length.
func FuzzFIRLinearity(f *testing.F) {
	f.Add(seedBytes(1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 2, -2))
	f.Add(seedBytes(0.5, -2, 0.1, 0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8))
	f.Add(seedBytes(3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := floatsFromBytes(data, 130)
		if len(vals) < 4 {
			t.Skip()
		}
		a, b := vals[0], vals[1]
		sig := vals[2:]
		half := len(sig) / 2
		if half == 0 {
			t.Skip()
		}
		x, y := sig[:half], sig[half:2*half]
		fir, err := DesignLowpass(13, 0.2, KaiserWin, 6)
		if err != nil {
			t.Fatal(err)
		}
		// The error scale is set by the individual terms, not the mix: when
		// a x and b y nearly cancel, each side still rounds at the magnitude
		// of the larger operand.
		var mx, my float64
		for i := range x {
			mx = math.Max(mx, math.Abs(x[i]))
			my = math.Max(my, math.Abs(y[i]))
		}
		scale := 1 + math.Abs(a)*mx + math.Abs(b)*my
		cx := make([]complex128, half)
		cy := make([]complex128, half)
		mix := make([]complex128, half)
		for i := range mix {
			cx[i] = complex(x[i], 0)
			cy[i] = complex(y[i], 0)
			mix[i] = complex(a*x[i]+b*y[i], 0)
		}
		factor := 1 + half%4
		fm := fir.Decimate(mix, factor)
		fx := fir.Decimate(cx, factor)
		fy := fir.Decimate(cy, factor)
		tol := 1e-10 * scale * float64(half)
		for i := range fm {
			want := complex(a, 0)*fx[i] + complex(b, 0)*fy[i]
			if d := cmplx.Abs(fm[i] - want); d > tol {
				t.Fatalf("linearity violated at %d: %g vs %g (diff %g > %g, a=%g b=%g n=%d)",
					i, fm[i], want, d, tol, a, b, half)
			}
		}
	})
}
