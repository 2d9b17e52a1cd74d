package dsp

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// besselI0Big is the test's independent I0 reference: the defining series
// sum_k ((x/2)^k / k!)^2 in 256-bit math/big arithmetic, rounded once.
func besselI0Big(x float64) float64 {
	const prec = 256
	half := new(big.Float).SetPrec(prec).SetFloat64(x / 2) // x/2 is exact
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	r := new(big.Float).SetPrec(prec).SetInt64(1) // (x/2)^k / k!
	sq := new(big.Float).SetPrec(prec)
	eps := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), -prec)
	for k := int64(1); ; k++ {
		r.Mul(r, half)
		r.Quo(r, new(big.Float).SetPrec(prec).SetInt64(k))
		sq.Mul(r, r)
		sum.Add(sum, sq)
		if sq.Cmp(new(big.Float).Mul(sum, eps)) < 0 {
			break
		}
	}
	v, _ := sum.Float64()
	return v
}

// TestBesselI0AgainstSeries checks BesselI0 against the math/big series:
// within 1.2e-15 relative up to |x| = 13, the largest Kaiser beta used
// here, and within 3e-15 out to 50 (the float recurrence's rounding grows
// with the number of terms).
func TestBesselI0AgainstSeries(t *testing.T) {
	for _, x := range []float64{0, 1e-3, 0.1, 0.5, 1, 2, 3, 3.75, 4, 5, 6, 8, 10, 12, 12.57, 13, -7.5, 16, 20, 30, 47.54, 50} {
		got, want := BesselI0(x), besselI0Big(x)
		bound := 1.2e-15
		if math.Abs(x) > 13 {
			bound = 3e-15
		}
		if rel := math.Abs(got-want) / want; rel > bound {
			t.Errorf("I0(%g) = %.17g, big series %.17g (rel %.2g)", x, got, want, rel)
		}
	}
}

func TestBesselI0KnownValues(t *testing.T) {
	// I0 at integer arguments, correctly rounded from 60-digit values:
	// I0(1) = 1.26606587775200833559824462521, I0(2) =
	// 2.27958530233606726743720444081, I0(5) =
	// 27.2398718236044468945442320759 and I0(13) =
	// 49444.4895822175729992545976986.
	cases := []struct{ x, want float64 }{
		{0, 1},
		{1, 1.2660658777520084},
		{2, 2.2795853023360673},
		{5, 27.239871823604446},
		{13, 49444.489582217575},
	}
	for _, c := range cases {
		if got := BesselI0(c.x); math.Abs(got-c.want)/c.want > 1e-15 {
			t.Errorf("I0(%g) = %.17g, want %.17g", c.x, got, c.want)
		}
	}
}

func TestBesselI0EvenProperty(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 30)
		return BesselI0(x) == BesselI0(-x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWindowsSymmetricAndBounded(t *testing.T) {
	for _, wt := range []WindowType{Hann, KaiserWin} {
		n := 61
		w := Window(wt, n, 7.0)
		if len(w) != n {
			t.Fatalf("%v: wrong length", wt)
		}
		for i := 0; i < n/2; i++ {
			if math.Abs(w[i]-w[n-1-i]) > 1e-12 {
				t.Errorf("%v: asymmetric at %d: %g vs %g", wt, i, w[i], w[n-1-i])
			}
		}
		for i, v := range w {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v[%d] = %g outside [0,1]", wt, i, v)
			}
		}
		// Peak at centre for odd-length windows.
		if w[n/2] < w[0]-1e-12 {
			t.Errorf("%v: centre %g below edge %g", wt, w[n/2], w[0])
		}
	}
}

func TestWindowSinglePoint(t *testing.T) {
	for _, wt := range []WindowType{Hann, KaiserWin} {
		w := Window(wt, 1, 5)
		if len(w) != 1 || w[0] != 1 {
			t.Errorf("%v: single-point window = %v, want [1]", wt, w)
		}
	}
}

func TestKaiserBetaZeroIsRectangular(t *testing.T) {
	w := Kaiser(11, 0)
	for i, v := range w {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("Kaiser(beta=0)[%d] = %g, want 1", i, v)
		}
	}
}

func TestKaiserSidelobesImproveWithBeta(t *testing.T) {
	// Higher beta must give lower peak sidelobes in the window's spectrum.
	sidelobe := func(beta float64) float64 {
		n := 63
		w := Kaiser(n, beta)
		pad := make([]float64, 4096)
		copy(pad, w)
		spec := RealFFTHalf(pad)
		main := cabs(spec[0])
		// Find peak beyond the main lobe (skip first ~ mainlobe bins).
		skip := 4096 / n * 4
		peak := 0.0
		for k := skip; k < 2048; k++ {
			if a := cabs(spec[k]); a > peak {
				peak = a
			}
		}
		return 20 * math.Log10(peak/main)
	}
	s2 := sidelobe(2)
	s8 := sidelobe(8)
	if s8 >= s2 {
		t.Errorf("sidelobe(beta=8)=%g dB not below sidelobe(beta=2)=%g dB", s8, s2)
	}
	if s8 > -55 {
		t.Errorf("Kaiser beta=8 sidelobes %g dB, want < -55 dB", s8)
	}
}

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func TestKaiserBetaFormulaRegions(t *testing.T) {
	if KaiserBeta(10) != 0 {
		t.Error("beta should be 0 below 21 dB")
	}
	if b := KaiserBeta(60); math.Abs(b-0.1102*(60-8.7)) > 1e-12 {
		t.Errorf("beta(60) = %g", b)
	}
	if b := KaiserBeta(30); b <= 0 || b > 5 {
		t.Errorf("beta(30) = %g out of plausible range", b)
	}
}

func TestSincValues(t *testing.T) {
	if Sinc(0) != 1 {
		t.Error("Sinc(0) != 1")
	}
	for _, k := range []float64{1, 2, 3, -4} {
		if math.Abs(Sinc(k)) > 1e-12 {
			t.Errorf("Sinc(%g) = %g, want 0", k, Sinc(k))
		}
	}
	if math.Abs(Sinc(0.5)-2/math.Pi) > 1e-12 {
		t.Errorf("Sinc(0.5) = %g", Sinc(0.5))
	}
	// Taylor branch continuity near zero.
	if math.Abs(Sinc(1e-7)-Sinc(1.0000001e-6)) > 1e-9 {
		t.Error("Sinc discontinuous near 0")
	}
}

func TestDiffCosOverTLimit(t *testing.T) {
	a, b := 2*math.Pi*1e9, 2*math.Pi*0.7e9
	p := 0.4
	want := -a*math.Sin(p) + b*math.Sin(p)
	got := DiffCosOverT(a, p, b, p, 0)
	if math.Abs(got-want)/math.Abs(want) > 1e-12 {
		t.Errorf("limit = %g, want %g", got, want)
	}
	// Continuity across the threshold: compare each branch against the
	// second-order expansion valid for tiny t. The function's own slope is
	// ~(b^2-a^2)cos(p)/2, so evaluate both sides at their own t.
	for _, tv := range []float64{0.9e-13, 1.1e-13, 2e-13} {
		expand := (b-a)*math.Sin(p) + tv*0.5*(b*b-a*a)*math.Cos(p)
		got := DiffCosOverT(a, p, b, p, tv)
		if math.Abs(got-expand)/math.Abs(expand) > 1e-6 {
			t.Errorf("t=%g: %g deviates from expansion %g", tv, got, expand)
		}
	}
}
