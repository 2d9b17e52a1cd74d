package rf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/sig"
)

// GainAt returns the power gain (output/input, linear) of the PA at input
// amplitude r.
func GainAt(p PA, r float64) float64 {
	if r <= 0 {
		return 0
	}
	out := cmplx.Abs(p.Apply(complex(r, 0)))
	return (out / r) * (out / r)
}

// InputP1dB searches for the input amplitude at which the PA gain has
// compressed by 1 dB from its small-signal value. It returns 0 when the
// model never compresses within the searched range.
func InputP1dB(p PA) float64 {
	small := GainAt(p, 1e-6)
	if small <= 0 {
		return 0
	}
	target := small * math.Pow(10, -0.1) // -1 dB
	lo, hi := 1e-6, 1e6
	if GainAt(p, hi) > target {
		return 0
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if GainAt(p, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

func TestLinearPA(t *testing.T) {
	p := &LinearPA{Gain: 2i}
	if p.Apply(complex(1, 1)) != complex(-2, 2) {
		t.Error("linear gain")
	}
	if p.Describe() == "" {
		t.Error("describe")
	}
}

func TestRappPASmallSignalAndSaturation(t *testing.T) {
	p, err := NewRappPA(10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Small signal: gain ~ 10.
	in := complex(1e-4, 0)
	if g := cmplx.Abs(p.Apply(in)) / cmplx.Abs(in); math.Abs(g-10) > 1e-3 {
		t.Errorf("small-signal gain %g", g)
	}
	// Deep saturation: output clamps to Vsat.
	if out := cmplx.Abs(p.Apply(complex(100, 0))); math.Abs(out-1) > 1e-2 {
		t.Errorf("saturated output %g, want ~1", out)
	}
	// Monotone non-decreasing output amplitude.
	prev := -1.0
	for r := 0.001; r < 10; r *= 1.3 {
		out := cmplx.Abs(p.Apply(complex(r, 0)))
		if out < prev-1e-12 {
			t.Errorf("non-monotonic at %g", r)
		}
		prev = out
	}
	// Phase preserved (pure AM/AM).
	v := p.Apply(cmplx.Exp(complex(0, 1.1)) * 3)
	if d := math.Abs(math.Atan2(imag(v), real(v)) - 1.1); d > 1e-12 {
		t.Errorf("Rapp altered phase by %g", d)
	}
	if p.Apply(0) != 0 {
		t.Error("zero in, zero out")
	}
}

func TestRappPAValidation(t *testing.T) {
	for _, bad := range [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := NewRappPA(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewRappPA%v should fail", bad)
		}
	}
}

func TestSalehPADefaultsAndAMPM(t *testing.T) {
	p := NewSalehPA(0, 0, 0, 0)
	if p.AlphaA != 2.1587 {
		t.Error("canonical defaults not applied")
	}
	// AM/PM: phase rotation grows with amplitude.
	phi := func(r float64) float64 {
		v := p.Apply(complex(r, 0))
		return math.Atan2(imag(v), real(v))
	}
	if !(phi(0.9) > phi(0.3) && phi(0.3) > phi(0.05)) {
		t.Errorf("AM/PM not increasing: %g %g %g", phi(0.05), phi(0.3), phi(0.9))
	}
	// AM/AM peaks at r = 1/sqrt(betaA) then compresses.
	rPeak := 1 / math.Sqrt(p.BetaA)
	aPeak := cmplx.Abs(p.Apply(complex(rPeak, 0)))
	if cmplx.Abs(p.Apply(complex(3*rPeak, 0))) >= aPeak {
		t.Error("Saleh does not compress past the peak")
	}
	if p.Apply(0) != 0 {
		t.Error("zero in, zero out")
	}
	custom := NewSalehPA(1, 2, 3, 4)
	if custom.BetaP != 4 {
		t.Error("custom params")
	}
	if p.Describe() == "" || custom.Describe() == "" {
		t.Error("describe")
	}
}

func TestInputP1dB(t *testing.T) {
	p, _ := NewRappPA(10, 1, 2)
	r1 := InputP1dB(p)
	if r1 <= 0 {
		t.Fatal("no compression point found")
	}
	// At the returned amplitude the gain must be 1 dB below small signal.
	gSmall := GainAt(p, 1e-6)
	gAt := GainAt(p, r1)
	dB := 10 * math.Log10(gSmall/gAt)
	if math.Abs(dB-1) > 0.01 {
		t.Errorf("compression at P1dB point = %g dB", dB)
	}
	// A linear PA never compresses.
	if InputP1dB(&LinearPA{Gain: 3}) != 0 {
		t.Error("linear PA should report no P1dB")
	}
	if GainAt(p, 0) != 0 {
		t.Error("GainAt(0)")
	}
}

func TestApplyPAOnEnvelope(t *testing.T) {
	p, _ := NewRappPA(2, 1, 2)
	env := sig.EnvelopeFunc(func(t float64) complex128 { return complex(t, 0) })
	out := ApplyPA(p, env)
	if out.At(0.1) != p.Apply(complex(0.1, 0)) {
		t.Error("envelope lift mismatch")
	}
}

func TestRappOutputNeverExceedsVsatProperty(t *testing.T) {
	p, _ := NewRappPA(5, 0.7, 1.5)
	f := func(re, im float64) bool {
		if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
			return true
		}
		out := cmplx.Abs(p.Apply(complex(re, im)))
		return out <= 0.7*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
