package skew

import (
	"math"
	"testing"

	"repro/internal/pnbs"
)

// toneChannels samples an ideal RF sinusoid into the two channels.
func toneChannels(f0, b, d float64, n int) (ch0, ch1 []float64) {
	tt := 1 / b
	ch0 = make([]float64, n)
	ch1 = make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = math.Cos(2 * math.Pi * f0 * float64(i) * tt)
		ch1[i] = math.Cos(2 * math.Pi * f0 * (float64(i)*tt + d))
	}
	return ch0, ch1
}

func TestJamalInterpFrequencySensitivity(t *testing.T) {
	// The interpolation-based adaptation of [14] must show a systematic,
	// omega0-dependent error of picosecond order — the paper's Table I
	// behaviour — even on noiseless captures.
	d := 180e-12
	b := 90e6
	band := pnbs.Band{FLow: 955e6, B: b}
	m := MUpper(band, HalfRateBand(band))
	errs := map[float64]float64{}
	for _, frac := range []float64{0.40, 0.46} {
		f0, err := SineTestFrequency(band, b, frac*b)
		if err != nil {
			t.Fatal(err)
		}
		ch0, ch1 := toneChannels(f0, b, d, 512)
		got, err := EstimateJamalInterp(SineEstimateConfig{F0: f0, B: b, DMax: m}, ch0, ch1)
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		errs[frac] = math.Abs(got - d)
	}
	// Errors are systematic (interpolation curvature), ps-scale, and differ
	// strongly between the two frequencies.
	for frac, e := range errs {
		if e < 0.5e-12 || e > 60e-12 {
			t.Errorf("omega0 = %g B: error %.2f ps outside the expected systematic range",
				frac, e*1e12)
		}
	}
	ratio := errs[0.40] / errs[0.46]
	if ratio > 0.67 && ratio < 1.5 {
		t.Errorf("errors too similar (%.2f vs %.2f ps): no omega0 sensitivity",
			errs[0.40]*1e12, errs[0.46]*1e12)
	}
}

func TestJamalInterpBeatenByCoherentFit(t *testing.T) {
	// The idealized coherent sine fit (EstimateSine) must out-perform the
	// interpolation loop on the same data: the bias is a property of the
	// interpolator, not of the data.
	d := 180e-12
	b := 90e6
	band := pnbs.Band{FLow: 955e6, B: b}
	m := MUpper(band, HalfRateBand(band))
	f0, _ := SineTestFrequency(band, b, 0.4*b)
	ch0, ch1 := toneChannels(f0, b, d, 512)
	cfg := SineEstimateConfig{F0: f0, B: b, DMax: m}
	dJamal, err := EstimateJamalInterp(cfg, ch0, ch1)
	if err != nil {
		t.Fatal(err)
	}
	dSine, err := EstimateSine(cfg, ch0, ch1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dSine-d) >= math.Abs(dJamal-d) {
		t.Errorf("coherent fit (%.3f ps err) not better than interpolation loop (%.3f ps err)",
			math.Abs(dSine-d)*1e12, math.Abs(dJamal-d)*1e12)
	}
}

func TestJamalInterpValidation(t *testing.T) {
	good := make([]float64, 64)
	if _, err := EstimateJamalInterp(SineEstimateConfig{B: 90e6, DMax: 1e-12}, good, good); err == nil {
		t.Error("F0=0 must fail")
	}
	cfg := SineEstimateConfig{F0: 1.026e9, B: 90e6, DMax: 480e-12}
	if _, err := EstimateJamalInterp(cfg, good[:8], good[:8]); err == nil {
		t.Error("too short must fail")
	}
	if _, err := EstimateJamalInterp(SineEstimateConfig{F0: 1.026e9, B: 90e6, DMax: 2e-9}, good, good); err == nil {
		t.Error("DMax >= 1/F0 must fail")
	}
	// DC alias.
	if _, err := EstimateJamalInterp(SineEstimateConfig{F0: 900e6, B: 90e6, DMax: 480e-12}, good, good); err == nil {
		t.Error("DC alias must fail")
	}
	// Inverted alias unsupported.
	if _, err := EstimateJamalInterp(SineEstimateConfig{F0: 1.036e9, B: 90e6, DMax: 480e-12}, good, good); err == nil {
		t.Error("inverted alias must fail")
	}
	// All-zero channels: no consistent shift.
	if _, err := EstimateJamalInterp(cfg, good, good); err == nil {
		t.Error("degenerate data must fail")
	}
}
