package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dftNaive is the O(N^2) reference transform used to validate the FFTs.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for m := 0; m < n; m++ {
			phi := -2 * math.Pi * float64(k) * float64(m) / float64(n)
			acc += x[m] * cmplx.Exp(complex(0, phi))
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 3, 5, 7, 12, 60, 100, 255} {
		x := randComplex(n, rng)
		got := FFT(x)
		want := dftNaive(x)
		if d := maxDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: FFT deviates from naive DFT by %g", n, d)
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randComplex(32, rng)
	orig := append([]complex128(nil), x...)
	_ = FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("FFT modified input at %d", i)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 16, 128, 3, 10, 77, 129} {
		x := randComplex(n, rng)
		y := IFFT(FFT(x))
		if d := maxDiff(x, y); d > 1e-9*float64(n+1) {
			t.Errorf("n=%d: IFFT(FFT(x)) differs from x by %g", n, d)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16
		a := randComplex(n, r)
		b := randComplex(n, r)
		alpha := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+alpha*fb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
		x := randComplex(n, r)
		var pt float64
		for _, v := range x {
			pt += real(v)*real(v) + imag(v)*imag(v)
		}
		var pf float64
		for _, v := range FFT(x) {
			pf += real(v)*real(v) + imag(v)*imag(v)
		}
		pf /= float64(n)
		return math.Abs(pt-pf) <= 1e-9*(pt+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 32)
	x[0] = 1
	for i, v := range FFT(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d: impulse FFT = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleToneBin(t *testing.T) {
	n := 64
	k0 := 5
	x := make([]complex128, n)
	for i := range x {
		phi := 2 * math.Pi * float64(k0) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, phi))
	}
	spec := FFT(x)
	for k, v := range spec {
		want := complex(0, 0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, v, want)
		}
	}
}

// TestRealFFTConjugateSymmetry: the one-sided spectrum is the conjugate
// mirror of the complex transform's upper half, X[k] = conj(X[n-k]), so
// its DC and Nyquist bins are real.
func TestRealFFTConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	half := RealFFTHalf(x)
	full := FFT(widen(x))
	for k := 1; k <= n/2; k++ {
		if cmplx.Abs(half[k]-cmplx.Conj(full[n-k])) > 1e-9 {
			t.Fatalf("bin %d breaks conjugate symmetry", k)
		}
	}
	if math.Abs(imag(half[0])) > 1e-9 || math.Abs(imag(half[n/2])) > 1e-9 {
		t.Errorf("DC %v or Nyquist %v not real", half[0], half[n/2])
	}
}

// widen returns x as a complex vector with zero imaginary parts.
func widen(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return c
}

func TestDTFTMatchesFFTOnBins(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 48
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := RealFFTHalf(x)
	for _, k := range []int{0, 1, 7, 23} {
		got := DTFT(x, float64(k)/float64(n))
		if cmplx.Abs(got-spec[k]) > 1e-9 {
			t.Errorf("DTFT at bin %d: %v vs FFT %v", k, got, spec[k])
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NextPowerOfTwo(0) should panic")
		}
	}()
	NextPowerOfTwo(0)
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 65536} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 100} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestBluesteinLargePrime(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randComplex(257, rng) // prime length forces Bluestein
	y := IFFT(FFT(x))
	if d := maxDiff(x, y); d > 1e-8 {
		t.Errorf("prime-length round trip error %g", d)
	}
}
