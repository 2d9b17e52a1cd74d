package rf

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/sig"
)

func TestPerfectModulatorIsIdentity(t *testing.T) {
	q := FromImbalanceDB(0, 0, 0)
	if q.Alpha() != 1 || q.Beta() != 0 {
		t.Errorf("alpha %v beta %v", q.Alpha(), q.Beta())
	}
	v := complex(0.3, -0.7)
	if q.Apply(v) != v {
		t.Error("perfect modulator altered the signal")
	}
	if q.ImageRejectionDB() != 400 {
		t.Error("perfect IRR should clamp at 400")
	}
}

func TestIQImbalanceImageLevel(t *testing.T) {
	// 1 dB gain imbalance, 5 degrees phase: a classic moderate impairment.
	q := FromImbalanceDB(1, 5, 0)
	irr := q.ImageRejectionDB()
	// Textbook IRR for (1 dB, 5 deg) is ~20-21 dB.
	if irr < 18 || irr > 24 {
		t.Errorf("IRR = %g dB, want ~21", irr)
	}
	// Energy check: |alpha|^2 + |beta|^2 ~ (1+g^2)/2.
	a2 := cmplx.Abs(q.Alpha()) * cmplx.Abs(q.Alpha())
	b2 := cmplx.Abs(q.Beta()) * cmplx.Abs(q.Beta())
	g := q.GainRatio
	if math.Abs(a2+b2-(1+g*g)/2) > 1e-12 {
		t.Errorf("coefficient energy %g", a2+b2)
	}
}

func TestIQImbalanceCreatesImageTone(t *testing.T) {
	// A +f0 complex tone through an imbalanced modulator must grow a -f0
	// image exactly beta/alpha below the direct tone.
	q := FromImbalanceDB(0.5, 3, 0)
	f0 := 1e6
	env := q.ApplyEnv(&sig.ComplexTone{Amp: 1, Freq: f0})
	fs := 16e6
	n := 4096
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = env.At(float64(i) / fs)
	}
	direct := complexTonePower(xs, f0/fs)
	image := complexTonePower(xs, -f0/fs)
	gotIRR := 10 * math.Log10(direct/image)
	if math.Abs(gotIRR-q.ImageRejectionDB()) > 0.5 {
		t.Errorf("measured IRR %g dB vs analytic %g dB", gotIRR, q.ImageRejectionDB())
	}
}

// complexTonePower estimates |X(nu)|^2 normalised for a complex sequence.
func complexTonePower(x []complex128, nu float64) float64 {
	var acc complex128
	for i, v := range x {
		phi := -2 * math.Pi * nu * float64(i)
		s, c := math.Sincos(phi)
		acc += v * complex(c, s)
	}
	acc /= complex(float64(len(x)), 0)
	return real(acc)*real(acc) + imag(acc)*imag(acc)
}

func TestLOLeakageAddsDC(t *testing.T) {
	q := &IQImbalance{GainRatio: 1, LOLeakage: complex(0.05, 0.02)}
	if q.Apply(0) != complex(0.05, 0.02) {
		t.Error("leakage not added")
	}
}

func TestPhaseNoiseMaskRealisation(t *testing.T) {
	offsets := []float64{1e4, 1e5, 1e6, 1e7}
	mask := []float64{-80, -95, -115, -130}
	pn, err := NewPhaseNoise(offsets, mask, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	rms := pn.RMSRadians()
	if rms <= 0 || rms > 0.3 {
		t.Errorf("integrated phase noise %g rad implausible", rms)
	}
	// Time-domain RMS must match the analytic sum.
	fs := 50e6
	n := 1 << 14
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = pn.Phi(float64(i) / fs)
	}
	if got := dsp.RMS(xs); math.Abs(got-rms)/rms > 0.25 {
		t.Errorf("time-domain rms %g vs analytic %g", got, rms)
	}
}

func TestPhaseNoiseValidation(t *testing.T) {
	if _, err := NewPhaseNoise([]float64{1e3}, []float64{-80}, 10, 1); err == nil {
		t.Error("single point must fail")
	}
	if _, err := NewPhaseNoise([]float64{1e4, 1e3}, []float64{-80, -90}, 10, 1); err == nil {
		t.Error("non-increasing offsets must fail")
	}
	if _, err := NewPhaseNoise([]float64{0, 1e3}, []float64{-80, -90}, 10, 1); err == nil {
		t.Error("zero offset must fail")
	}
	// Tones far above 1/phiH: the Taylor cells cannot meet phiMaxTrunc,
	// and the process is refused rather than evaluated inaccurately.
	if _, err := NewPhaseNoise([]float64{1e6, 1e9}, []float64{-80, -100}, 64, 1); err == nil ||
		!strings.Contains(err.Error(), "truncation bound") {
		t.Errorf("1 GHz tones: err = %v, want a truncation-bound refusal", err)
	}
	pn, err := NewPhaseNoise([]float64{1e3, 1e6}, []float64{-90, -120}, 0, 1)
	if err != nil || len(pn.freqs) != 64 {
		t.Error("nTones default")
	}
}

func TestPhaseNoisePreservesMagnitude(t *testing.T) {
	pn, _ := NewPhaseNoise([]float64{1e4, 1e6}, []float64{-80, -110}, 64, 5)
	env := pn.ApplyEnv(&sig.ComplexTone{Amp: 2, Freq: 1e5})
	for _, tv := range []float64{0, 1e-7, 3.3e-6} {
		if d := math.Abs(cmplx.Abs(env.At(tv)) - 2); d > 1e-12 {
			t.Errorf("phase noise altered magnitude by %g", d)
		}
	}
}

func TestInterpMaskDB(t *testing.T) {
	off := []float64{1e3, 1e5}
	db := []float64{-60, -100}
	if v := interpMaskDB(off, db, 1e2); v != -60 {
		t.Error("below range")
	}
	if v := interpMaskDB(off, db, 1e6); v != -100 {
		t.Error("above range")
	}
	if v := interpMaskDB(off, db, 1e4); math.Abs(v-(-80)) > 1e-9 {
		t.Errorf("log midpoint %g, want -80", v)
	}
}
