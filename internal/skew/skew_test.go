package skew

import (
	"math"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/pnbs"
)

// paper configuration: fc = 1 GHz, B = 90 MHz, B1 = 45 MHz, D = 180 ps.
func paperBands() (bandB, bandB1 pnbs.Band) {
	bandB = pnbs.Band{FLow: 955e6, B: 90e6}
	return bandB, HalfRateBand(bandB)
}

// threeTone is a deterministic in-band test waveform (no modem dependency).
func threeTone(t float64) float64 {
	return math.Cos(2*math.Pi*0.992e9*t+0.3) +
		0.6*math.Cos(2*math.Pi*1.0e9*t+1.7) +
		0.4*math.Cos(2*math.Pi*1.007e9*t+2.9)
}

// idealSet samples threeTone ideally into a SampleSet.
func idealSet(band pnbs.Band, t0, d float64, n int) SampleSet {
	tt := band.T()
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = threeTone(t0 + float64(i)*tt)
		ch1[i] = threeTone(t0 + float64(i)*tt + d)
	}
	return SampleSet{Band: band, T0: t0, Ch0: ch0, Ch1: ch1}
}

func paperEvaluator(t *testing.T, d float64) *CostEvaluator {
	t.Helper()
	bandB, bandB1 := paperBands()
	setB := idealSet(bandB, 0, d, 220)
	setB1 := idealSet(bandB1, -300e-9, d, 130)
	lo, hi, err := EvalWindow(setB, setB1, pnbs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: N = 300 random times in [470, 1700] ns; stay inside the
	// window computed for these captures.
	if lo > 470e-9 || hi < 1700e-9 {
		t.Fatalf("eval window [%g, %g] does not cover the paper's interval", lo, hi)
	}
	times := RandomTimes(470e-9, 1700e-9, 150, 1)
	ce, err := NewCostEvaluator(setB, setB1, times, pnbs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ce
}

func TestHalfRateBandCentred(t *testing.T) {
	bandB, bandB1 := paperBands()
	if bandB1.B != 45e6 {
		t.Errorf("B1 = %g", bandB1.B)
	}
	if math.Abs(bandB1.Fc()-bandB.Fc()) > 1 {
		t.Errorf("centres differ: %g vs %g", bandB1.Fc(), bandB.Fc())
	}
	if math.Abs(bandB1.FLow-977.5e6) > 1 {
		t.Errorf("fl1 = %g", bandB1.FLow)
	}
}

func TestMUpperMatchesPaper(t *testing.T) {
	bandB, bandB1 := paperBands()
	// k+ = 23 at B = 90 MHz -> 1/(23*90e6) = 483 ps; k1+ = 45 at 45 MHz ->
	// 494 ps; m = 483 ps as printed in Section V.
	m := MUpper(bandB, bandB1)
	if math.Abs(m-483.09e-12) > 0.5e-12 {
		t.Errorf("m = %g s, want ~483 ps", m)
	}
}

func TestCheckUniqueness(t *testing.T) {
	bandB, bandB1 := paperBands()
	if err := CheckUniqueness(bandB, bandB1); err != nil {
		t.Errorf("paper configuration rejected: %v", err)
	}
	if err := CheckUniqueness(bandB, bandB); err == nil {
		t.Error("B1 >= B must fail")
	}
	// Construct a violation of (9b): k+ B = k1+ B1. Take bandB with k+ = 23
	// at B = 90 MHz (k+B = 2070 MHz) and bandB1 with B1 = 2070/46 = 45 MHz
	// and k1+ = 46 -> need k1 = 45 -> 44 < 2 fl1/B1 <= 45, fl1 ~ 1005 MHz.
	bad := pnbs.Band{FLow: 1005e6, B: 45e6}
	if bad.KPlus() != 46 {
		t.Fatalf("constructed k1+ = %d", bad.KPlus())
	}
	if err := CheckUniqueness(bandB, bad); err == nil {
		t.Error("Eq. (9b) violation not detected")
	}
}

func TestCostMinimumAtTrueDelay(t *testing.T) {
	d := 180e-12
	ce := paperEvaluator(t, d)
	c0, err := ce.Cost(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []float64{-60e-12, -20e-12, 20e-12, 60e-12} {
		c, err := ce.Cost(d + off)
		if err != nil {
			t.Fatal(err)
		}
		if c <= c0 {
			t.Errorf("cost(%g) = %g not above cost(D) = %g", d+off, c, c0)
		}
	}
	// Single minimum across ]0, m[: scan and verify the argmin lands at D.
	ds, costs := CostCurve(trace.Root, ce, 20e-12, 460e-12, 45)
	best := 0
	for i, c := range costs {
		if !math.IsNaN(c) && c < costs[best] {
			best = i
		}
	}
	if math.Abs(ds[best]-d) > 12e-12 {
		t.Errorf("cost curve argmin %g, want ~%g", ds[best], d)
	}
}

func TestLMSConvergesFromPaperStarts(t *testing.T) {
	d := 180e-12
	ce := paperEvaluator(t, d)
	for _, d0 := range []float64{50e-12, 100e-12, 350e-12, 400e-12} {
		res, err := EstimateLMS(trace.Root, ce.Cost, d0, ce.M())
		if err != nil {
			t.Fatalf("d0 = %g: %v", d0, err)
		}
		if math.Abs(res.DHat-d) > 0.5e-12 {
			t.Errorf("d0 = %g: DHat = %g ps, want 180 ps (err %.3g ps)",
				d0, res.DHat*1e12, math.Abs(res.DHat-d)*1e12)
		}
		// Paper: convergence in < 20 iterations every time.
		if res.Iterations >= 20 {
			t.Errorf("d0 = %g: %d iterations", d0, res.Iterations)
		}
		if len(res.CostHistory) == 0 || len(res.DHistory) != len(res.CostHistory) {
			t.Error("history bookkeeping")
		}
		if res.CostEvals <= 0 {
			t.Error("cost evaluation counter")
		}
	}
}

func TestLMSValidationAndBounds(t *testing.T) {
	evals := 0
	cost := func(d float64) (float64, error) {
		evals++
		return (d - 5e-12) * (d - 5e-12), nil
	}
	// A search limit that is not finite and positive is rejected before
	// any cost evaluation.
	for _, m := range []float64{0, -10e-12, math.NaN(), math.Inf(1)} {
		if _, err := EstimateLMS(trace.Root, cost, 1e-12, m); err == nil {
			t.Errorf("m = %g accepted", m)
		}
	}
	if evals != 0 {
		t.Errorf("invalid m evaluated the cost %d times", evals)
	}
	// Clamping: with m = 10 ps a start at -3 ps lies below the interval
	// ]m/1000, 0.999 m[ and begins at its lower edge.
	const m = 10e-12
	res, err := EstimateLMS(trace.Root, cost, -3e-12, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.DHistory[0] != m/1000 {
		t.Errorf("start %g ps, want the clamp %g ps", res.DHistory[0]*1e12, m/1000*1e12)
	}
	if math.Abs(res.DHat-5e-12) > 0.02e-12 {
		t.Errorf("quadratic minimum missed: %g ps", res.DHat*1e12)
	}
	if !res.Converged {
		t.Error("should converge on a clean quadratic")
	}
}

func TestCostEvaluatorValidation(t *testing.T) {
	bandB, bandB1 := paperBands()
	good := idealSet(bandB, 0, 180e-12, 220)
	good1 := idealSet(bandB1, -300e-9, 180e-12, 130)
	if _, err := NewCostEvaluator(good, good1, nil, pnbs.Options{}); err == nil {
		t.Error("empty times must fail")
	}
	bad := good
	bad.Ch1 = bad.Ch1[:10]
	if _, err := NewCostEvaluator(bad, good1, []float64{1e-6}, pnbs.Options{}); err == nil {
		t.Error("ragged channels must fail")
	}
	if _, err := NewCostEvaluator(good, good, []float64{1e-6}, pnbs.Options{}); err == nil {
		t.Error("same-rate sets must fail uniqueness")
	}
}

func TestRandomTimesDeterministic(t *testing.T) {
	a := RandomTimes(0, 1, 16, 3)
	b := RandomTimes(0, 1, 16, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatal("out of range")
		}
	}
}

func TestAliasedFrequency(t *testing.T) {
	fa, inv := AliasedFrequency(1026e6, 90e6)
	if math.Abs(fa-36e6) > 1e-3 || inv {
		t.Errorf("1026 MHz @ 90 MS/s -> %g, inverted %v", fa, inv)
	}
	fa, inv = AliasedFrequency(1034e6, 90e6)
	// 1034 mod 90 = 44 -> below 45: not inverted.
	if math.Abs(fa-44e6) > 1e-3 || inv {
		t.Errorf("1034 MHz -> %g, %v", fa, inv)
	}
	fa, inv = AliasedFrequency(1036e6, 90e6)
	// 1036 mod 90 = 46 -> inverted to 44.
	if math.Abs(fa-44e6) > 1e-3 || !inv {
		t.Errorf("1036 MHz -> %g, %v", fa, inv)
	}
}

func TestSineTestFrequency(t *testing.T) {
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	f0, err := SineTestFrequency(band, 90e6, 36e6)
	if err != nil {
		t.Fatal(err)
	}
	if f0 < band.FLow || f0 > band.FHigh() {
		t.Errorf("tone %g outside band", f0)
	}
	fa, _ := AliasedFrequency(f0, 90e6)
	if math.Abs(fa-36e6) > 1e-3 {
		t.Errorf("alias %g, want 36 MHz", fa)
	}
	if _, err := SineTestFrequency(band, 90e6, 50e6); err == nil {
		t.Error("target above B/2 must fail")
	}
}

func TestEstimateSineIdealChannels(t *testing.T) {
	d := 180e-12
	b := 90e6
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	for _, target := range []float64{0.4 * b, 0.46 * b} {
		f0, err := SineTestFrequency(band, b, target)
		if err != nil {
			t.Fatal(err)
		}
		n := 512
		tt := 1 / b
		ch0 := make([]float64, n)
		ch1 := make([]float64, n)
		for i := 0; i < n; i++ {
			ch0[i] = math.Cos(2 * math.Pi * f0 * float64(i) * tt)
			ch1[i] = math.Cos(2 * math.Pi * f0 * (float64(i)*tt + d))
		}
		got, err := EstimateSine(SineEstimateConfig{F0: f0, B: b, DMax: 483e-12}, ch0, ch1)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		if math.Abs(got-d) > 0.05e-12 {
			t.Errorf("target %g: D = %g ps, want 180 ps", target, got*1e12)
		}
	}
}

func TestEstimateSineValidation(t *testing.T) {
	good := make([]float64, 64)
	cfg := SineEstimateConfig{F0: 1e9, B: 90e6, DMax: 480e-12}
	if _, err := EstimateSine(SineEstimateConfig{B: 90e6, DMax: 1e-12}, good, good); err == nil {
		t.Error("F0=0 must fail")
	}
	if _, err := EstimateSine(cfg, good[:4], good[:4]); err == nil {
		t.Error("too short must fail")
	}
	if _, err := EstimateSine(SineEstimateConfig{F0: 1e9, B: 90e6, DMax: 2e-9}, good, good); err == nil {
		t.Error("DMax above 1/F0 must fail")
	}
	// Tone aliasing to DC cannot be fitted.
	if _, err := EstimateSine(SineEstimateConfig{F0: 900e6, B: 90e6, DMax: 480e-12}, good, good); err == nil {
		t.Error("DC alias must fail")
	}
}
