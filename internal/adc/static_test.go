package adc

import (
	"math"
	"testing"

	"repro/internal/dsp"
)

// PeakINL returns max |INL| in LSB.
func (s *StaticNL) PeakINL() float64 {
	m := 0.0
	for _, v := range s.INL {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// DNL returns the differential nonlinearity per code (LSB): the INL first
// difference.
func (s *StaticNL) DNL() []float64 {
	if len(s.INL) < 2 {
		return nil
	}
	out := make([]float64, len(s.INL)-1)
	for k := 1; k < len(s.INL); k++ {
		out[k-1] = s.INL[k] - s.INL[k-1]
	}
	return out
}

func TestBowNLProfile(t *testing.T) {
	nl, err := NewBowNL(8, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.INL) != 256 {
		t.Fatalf("%d codes", len(nl.INL))
	}
	// Peak at mid-scale, ~0 at the rails.
	if math.Abs(nl.PeakINL()-2.0) > 0.01 {
		t.Errorf("peak INL %g", nl.PeakINL())
	}
	if math.Abs(nl.INL[0]) > 1e-9 || math.Abs(nl.INL[255]) > 1e-9 {
		t.Error("endpoints should be ~0")
	}
	if nl.INL[128] < nl.INL[64] {
		t.Error("bow should peak at centre")
	}
	if _, err := NewBowNL(0, 1); err == nil {
		t.Error("bits 0 must fail")
	}
	if _, err := NewBowNL(30, 1); err == nil {
		t.Error("bits 30 must fail")
	}
}

func TestRandomNLEndpointCorrected(t *testing.T) {
	nl, err := NewRandomNL(10, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := len(nl.INL)
	if math.Abs(nl.INL[0]) > 1e-9 || math.Abs(nl.INL[n-1]) > 1e-9 {
		t.Error("endpoint correction failed")
	}
	dnl := nl.DNL()
	if len(dnl) != n-1 {
		t.Fatalf("DNL length %d", len(dnl))
	}
	// DNL rms should be near the requested value (endpoint correction
	// subtracts only a constant slope).
	if rms := dsp.RMS(dnl); math.Abs(rms-0.3) > 0.1 {
		t.Errorf("DNL rms %g, want ~0.3", rms)
	}
	// Determinism.
	nl2, _ := NewRandomNL(10, 0.3, 5)
	for k := range nl.INL {
		if nl.INL[k] != nl2.INL[k] {
			t.Fatal("same seed must reproduce")
		}
	}
	if _, err := NewRandomNL(10, -1, 5); err == nil {
		t.Error("negative DNL must fail")
	}
}

func TestHistogramTestRecoversBow(t *testing.T) {
	bits := 8
	a, _ := New(Config{Bits: bits, FullScale: 1})
	nl, _ := NewBowNL(bits, 1.5)
	// Slightly overdriven, deliberately non-coherent sine.
	amp := 1.05
	freq := 0.012360679774997897
	nSamp := 1 << 18
	times := make([]float64, nSamp)
	for i := range times {
		times[i] = float64(i)
	}
	codes := a.SampleCodes(func(t float64) float64 {
		return amp * math.Sin(2*math.Pi*freq*t)
	}, times, nl)
	dnl, inl, err := HistogramTest(codes, bits)
	if err != nil {
		t.Fatal(err)
	}
	if len(dnl) != (1<<bits)-2 || len(inl) != (1<<bits)-1 {
		t.Fatalf("lengths %d, %d", len(dnl), len(inl))
	}
	// The measured INL must correlate with the injected bow: peak within
	// 40% and located mid-scale.
	peak, peakIdx := 0.0, 0
	for k, v := range inl {
		if math.Abs(v) > peak {
			peak = math.Abs(v)
			peakIdx = k
		}
	}
	// Statistical INL noise with this record length is ~0.5 LSB rms at
	// mid-scale, so bound loosely around the injected 1.5 LSB bow.
	if peak < 0.9 || peak > 3 {
		t.Errorf("measured peak INL %g LSB, injected 1.5", peak)
	}
	if peakIdx < 48 || peakIdx > 208 {
		t.Errorf("peak at code %d, want mid-scale", peakIdx)
	}
}

func TestHistogramTestHealthyADC(t *testing.T) {
	bits := 8
	a, _ := New(Config{Bits: bits, FullScale: 1})
	nSamp := 1 << 19
	times := make([]float64, nSamp)
	for i := range times {
		times[i] = float64(i)
	}
	codes := a.SampleCodes(func(t float64) float64 {
		return 1.05 * math.Sin(2*math.Pi*0.012360679774997897*t)
	}, times, nil)
	_, inl, err := HistogramTest(codes, bits)
	if err != nil {
		t.Fatal(err)
	}
	// Residual is pure statistical noise (~0.25 LSB rms at this record
	// length); a healthy converter stays well under 1 LSB.
	worst := dsp.MaxAbsFloat(inl)
	if worst > 1.0 {
		t.Errorf("healthy ADC measured INL %g LSB", worst)
	}
}

func TestHistogramTestValidation(t *testing.T) {
	if _, _, err := HistogramTest(make([]int, 10), 8); err == nil {
		t.Error("too few samples must fail")
	}
	bad := make([]int, 16*256)
	bad[0] = 999
	if _, _, err := HistogramTest(bad, 8); err == nil {
		t.Error("out-of-range code must fail")
	}
	zeros := make([]int, 16*256) // all in rail bin 0
	if _, _, err := HistogramTest(zeros, 8); err == nil {
		t.Error("empty mid-range must fail")
	}
}

func TestSampleCodesIdealADCReturnsNil(t *testing.T) {
	a, _ := New(Config{})
	if a.SampleCodes(func(float64) float64 { return 0 }, []float64{0}, nil) != nil {
		t.Error("ideal ADC has no codes")
	}
}

func TestDynamicTestIdealQuantizer(t *testing.T) {
	bits := 10
	a, _ := New(Config{Bits: bits, FullScale: 1})
	n := 1 << 13
	nu := 0.01234567
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = a.Quantize(0.98 * math.Sin(2*math.Pi*nu*float64(i)))
	}
	res, err := DynamicTest(samples, nu)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal 10-bit: SNDR ~ 61.8 dB, ENOB ~ 10.
	if math.Abs(res.ENOB-float64(bits)) > 0.7 {
		t.Errorf("ENOB %g, want ~%d", res.ENOB, bits)
	}
	if res.SFDRdB < res.SNDRdB {
		t.Error("SFDR must be >= SNDR")
	}
	if res.THDdB < res.SNDRdB-1 {
		t.Errorf("THD %g implausibly below SNDR %g", res.THDdB, res.SNDRdB)
	}
}

func TestDynamicTestDetectsDistortion(t *testing.T) {
	n := 1 << 13
	nu := 0.037
	clean := make([]float64, n)
	dirty := make([]float64, n)
	for i := range clean {
		v := math.Sin(2 * math.Pi * nu * float64(i))
		clean[i] = v
		dirty[i] = v - 0.02*v*v*v // 3rd-order distortion
	}
	rc, err := DynamicTest(clean, nu)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := DynamicTest(dirty, nu)
	if err != nil {
		t.Fatal(err)
	}
	if rd.THDdB >= rc.THDdB {
		t.Errorf("distortion not detected: %g vs %g dB", rd.THDdB, rc.THDdB)
	}
	// -0.02 v^3: HD3 at (0.02 * 1/4) amplitude -> THD ~ 46 dB.
	if math.Abs(rd.THDdB-46) > 4 {
		t.Errorf("THD %g dB, want ~46", rd.THDdB)
	}
}

// TestDynamicWindowShared: the memoised window of a record length is the
// Kaiser(13) window dsp.Window designs, bit for bit, and every call for that
// length returns the one shared slice.
func TestDynamicWindowShared(t *testing.T) {
	for _, n := range []int{64, 1000, 1 << 13} {
		w := dynamicWindow(n)
		want := dsp.Window(dsp.KaiserWin, n, 13)
		for i := range want {
			if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d i=%d: shared window %g != designed %g", n, i, w[i], want[i])
			}
		}
		if &dynamicWindow(n)[0] != &w[0] {
			t.Fatalf("n=%d: second call built a new window", n)
		}
	}
}

func TestDynamicTestValidation(t *testing.T) {
	if _, err := DynamicTest(make([]float64, 10), 0.1); err == nil {
		t.Error("too short must fail")
	}
	if _, err := DynamicTest(make([]float64, 128), 0.6); err == nil {
		t.Error("frequency above Nyquist must fail")
	}
	if _, err := DynamicTest(make([]float64, 128), 0.1); err == nil {
		t.Error("all-zero record must fail")
	}
}

func TestFoldBin(t *testing.T) {
	n := 1024
	if foldBin(100, n) != 100 {
		t.Error("in-zone")
	}
	if foldBin(600, n) != 424 {
		t.Error("second zone folds")
	}
	if foldBin(1024+100, n) != 100 {
		t.Error("wraps")
	}
}
