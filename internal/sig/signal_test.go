package sig

import (
	"math"
	"testing"
	"testing/quick"
)

func TestToneValues(t *testing.T) {
	s := &Tone{Amp: 2, Freq: 1e6, Phase: math.Pi / 2}
	if math.Abs(s.At(0)) > 1e-12 {
		t.Errorf("cos with pi/2 phase at t=0 should be 0, got %g", s.At(0))
	}
	// Quarter period later: cos(pi/2 + pi/2) = -1 -> -2.
	if v := s.At(0.25e-6); math.Abs(v+2) > 1e-9 {
		t.Errorf("got %g, want -2", v)
	}
}

func TestComplexToneUnitCircle(t *testing.T) {
	s := &ComplexTone{Amp: 1, Freq: 3e6}
	f := func(tRaw float64) bool {
		tv := math.Mod(tRaw, 1e-3)
		if math.IsNaN(tv) {
			return true
		}
		v := s.At(tv)
		return math.Abs(math.Hypot(real(v), imag(v))-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPassbandMatchesDirectExpression(t *testing.T) {
	fc := 1e9
	env := &ComplexTone{Amp: 0.7, Freq: 5e6, Phase: 0.3}
	pb := &Passband{Env: env, Fc: fc}
	for _, tv := range []float64{0, 1.23e-9, 4.567e-8, 1e-6} {
		e := env.At(tv)
		want := real(e)*math.Cos(2*math.Pi*fc*tv) - imag(e)*math.Sin(2*math.Pi*fc*tv)
		if got := pb.At(tv); math.Abs(got-want) > 1e-12 {
			t.Errorf("t=%g: %g vs %g", tv, got, want)
		}
	}
}

func TestPassbandOfComplexToneIsShiftedTone(t *testing.T) {
	// Re{A e^{i 2 pi fb t} e^{i 2 pi fc t}} = A cos(2 pi (fc+fb) t).
	fc, fb := 1e9, 7e6
	pb := &Passband{Env: &ComplexTone{Amp: 1.5, Freq: fb}, Fc: fc}
	ref := &Tone{Amp: 1.5, Freq: fc + fb}
	for _, tv := range []float64{0, 3.1e-10, 2.7e-9, 5e-8} {
		if d := math.Abs(pb.At(tv) - ref.At(tv)); d > 1e-9 {
			t.Errorf("t=%g: diff %g", tv, d)
		}
	}
}

func TestCombinators(t *testing.T) {
	a := &Tone{Amp: 1, Freq: 1e6}
	b := &Tone{Amp: 0.5, Freq: 2e6}
	sum := Sum{a, b}
	tv := 0.321e-6
	if math.Abs(sum.At(tv)-(a.At(tv)+b.At(tv))) > 1e-12 {
		t.Error("Sum")
	}
	if (Sum{}).At(tv) != 0 {
		t.Error("empty Sum")
	}
	ea := &ComplexTone{Amp: 1, Freq: 1e6}
	if v := ScaleEnv(ea, 2i).At(tv) - 2i*ea.At(tv); v != 0 {
		t.Error("ScaleEnv")
	}
}

func TestSampleHelpers(t *testing.T) {
	a := &Tone{Amp: 1, Freq: 1e6}
	ts := []float64{1e-6, 1.01e-6, 1.02e-6, 1.03e-6, 1.04e-6}
	xs := SampleAt(a, ts)
	for i := range ts {
		if xs[i] != a.At(ts[i]) {
			t.Error("SampleAt mismatch")
		}
	}
}

func TestDownconvertRecoversEnvelope(t *testing.T) {
	// Downconvert(Passband(env)) = env + image at -2fc; at t where the
	// double-frequency term is small on average, check the low-frequency
	// content by averaging over a carrier period.
	fc := 1e9
	env := &ComplexTone{Amp: 0.9, Freq: 2e6, Phase: 1.0}
	pb := &Passband{Env: env, Fc: fc}
	down := Downconvert(pb, fc)
	// Average over exactly one carrier cycle kills the 2fc image.
	n := 64
	var acc complex128
	t0 := 1.7e-7
	for i := 0; i < n; i++ {
		acc += down.At(t0 + float64(i)/float64(n)/fc)
	}
	acc /= complex(float64(n), 0)
	want := env.At(t0 + 0.5/fc) // envelope is nearly constant over the cycle
	if d := acc - want; math.Hypot(real(d), imag(d)) > 1e-2 {
		t.Errorf("downconverted %v, want %v", acc, want)
	}
}

func TestSignalFuncAdapters(t *testing.T) {
	e := EnvelopeFunc(func(t float64) complex128 { return complex(t, -t) })
	if e.At(2) != complex(2, -2) {
		t.Error("EnvelopeFunc")
	}
}
