package tiadc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/adc"
	"repro/internal/par"
	"repro/internal/sig"
)

func TestDCDESetQuantizationAndBias(t *testing.T) {
	d := DCDE{Step: 1e-12, Min: 0, Max: 500e-12, Bias: 0.3e-12}
	got, err := d.Set(180.4e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-180.3e-12) > 1e-18 {
		t.Errorf("actual delay %g, want 180.3 ps", got)
	}
	if _, err := d.Set(600e-12); err == nil {
		t.Error("out-of-range delay must fail")
	}
	if _, err := d.Set(-1e-12); err == nil {
		t.Error("below range must fail")
	}
	// Continuous element: no quantization.
	c := DCDE{Min: 0, Max: 1e-9}
	if got, _ := c.Set(123.456e-12); got != 123.456e-12 {
		t.Errorf("continuous DCDE altered the delay: %g", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{DCDE: DCDE{Min: 1, Max: 0}}); err == nil {
		t.Error("inverted DCDE range must fail")
	}
	if _, err := New(Config{ClockJitterRMS: -1}); err == nil {
		t.Error("negative jitter must fail")
	}
	if _, err := New(Config{Ch0: adc.Config{Bits: -3}}); err == nil {
		t.Error("bad channel 0 must fail")
	}
	if _, err := New(Config{Ch1: adc.Config{Bits: 99}}); err == nil {
		t.Error("bad channel 1 must fail")
	}
}

func TestCaptureIdealChannels(t *testing.T) {
	ti, err := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	period := 1e-8
	d := 180e-12
	cap, err := ti.Capture(tone, period, d, 1e-7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cap.N() != 64 || cap.ActualD != d || cap.NominalD != d {
		t.Fatalf("capture metadata: %+v", cap)
	}
	for i := 0; i < cap.N(); i++ {
		if math.Abs(cap.Ch0[i]-tone.At(cap.T0+float64(i)*cap.T)) > 1e-12 {
			t.Fatalf("ch0[%d] mismatch", i)
		}
		if math.Abs(cap.Ch1[i]-tone.At(cap.T0+d+float64(i)*cap.T)) > 1e-12 {
			t.Fatalf("ch1[%d] mismatch", i)
		}
	}
}

// rampSignal is x(t) = 1e9 t.
type rampSignal struct{}

func (rampSignal) At(t float64) float64 { return t * 1e9 }

func TestCaptureAppliesDCDEBias(t *testing.T) {
	bias := 2.5e-12
	ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9, Bias: bias}})
	ramp := rampSignal{}
	cap, err := ti.Capture(ramp, 1e-8, 100e-12, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap.ActualD-(100e-12+bias)) > 1e-20 {
		t.Errorf("actual delay %g", cap.ActualD)
	}
	// Channel 1 samples the ramp later by the *actual* delay.
	for i := range cap.Ch1 {
		dt := (cap.Ch1[i] - cap.Ch0[i]) / 1e9
		if math.Abs(dt-cap.ActualD) > 1e-18 {
			t.Fatalf("sample %d: measured delay %g", i, dt)
		}
	}
}

func TestCaptureValidation(t *testing.T) {
	ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}})
	x := sig.Sum{} // the zero signal
	if _, err := ti.Capture(x, 0, 1e-10, 0, 4); err == nil {
		t.Error("zero period must fail")
	}
	if _, err := ti.Capture(x, 1e-8, 1e-10, 0, 0); err == nil {
		t.Error("zero length must fail")
	}
	if _, err := ti.Capture(x, 1e-8, 5e-9, 0, 4); err == nil {
		t.Error("delay outside DCDE must fail")
	}
}

func TestCaptureChannelMismatchVisible(t *testing.T) {
	ti, err := New(Config{
		Ch0:  adc.Config{Gain: 1.05, Offset: 0.01},
		Ch1:  adc.Config{Gain: 0.95, Offset: -0.01},
		DCDE: DCDE{Min: 0, Max: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc := &sig.Tone{Amp: 1} // the constant 1
	cap, _ := ti.Capture(dc, 1e-8, 0, 0, 2)
	if math.Abs(cap.Ch0[0]-1.06) > 1e-12 || math.Abs(cap.Ch1[0]-0.94) > 1e-12 {
		t.Errorf("mismatch not applied: %g, %g", cap.Ch0[0], cap.Ch1[0])
	}
}

func TestCaptureClockJitterReproducible(t *testing.T) {
	mk := func(seed int64) *Capture {
		ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}, ClockJitterRMS: 3e-12, Seed: seed})
		cap, _ := ti.Capture(&sig.Tone{Amp: 1, Freq: 1e9}, 1.111e-8, 180e-12, 0, 32)
		return cap
	}
	a, b, c := mk(4), mk(4), mk(5)
	for i := range a.Ch0 {
		if a.Ch0[i] != b.Ch0[i] || a.Ch1[i] != b.Ch1[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	same := true
	for i := range a.Ch0 {
		if a.Ch0[i] != c.Ch0[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

// Channel returns the underlying converter models (0 or 1) for inspection.
func (ti *TIADC) Channel(i int) (*adc.ADC, error) {
	switch i {
	case 0:
		return ti.a0, nil
	case 1:
		return ti.a1, nil
	default:
		return nil, fmt.Errorf("tiadc: channel %d out of range", i)
	}
}

func TestChannelAccessor(t *testing.T) {
	ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}})
	if _, err := ti.Channel(0); err != nil {
		t.Error(err)
	}
	if _, err := ti.Channel(1); err != nil {
		t.Error(err)
	}
	if _, err := ti.Channel(2); err == nil {
		t.Error("channel 2 must fail")
	}
}

// captureTestConfig is a representative impaired two-channel setup for the
// capture determinism tests.
func captureTestConfig() Config {
	return Config{
		Ch0: adc.Config{Bits: 10, FullScale: 1.5, JitterRMS: 3e-12,
			NoiseRMS: 1e-3, Seed: 11},
		Ch1: adc.Config{Bits: 10, FullScale: 1.5, Gain: 1.01, Offset: 2e-3,
			JitterRMS: 3e-12, NoiseRMS: 1e-3, Seed: 22},
		DCDE:           DCDE{Min: 0, Max: 1e-9, Bias: 0.4e-12},
		ClockJitterRMS: 3e-12,
		Seed:           7,
	}
}

// captureAtWorkers acquires one capture on a fresh sampler with the pool
// width set to w.
func captureAtWorkers(t *testing.T, cfg Config, w, n int) *Capture {
	t.Helper()
	defer par.SetWorkers(par.SetWorkers(w))
	ti, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ti.Capture(&sig.Tone{Amp: 1, Freq: 13e6}, 1e-8, 180e-12, 1e-7, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCaptureWorkerInvariance: the front end draws its random stream
// serially and fans only the signal evaluations out, so a capture is
// bit-identical at every pool width.
func TestCaptureWorkerInvariance(t *testing.T) {
	ref := captureAtWorkers(t, captureTestConfig(), 1, 900)
	for _, w := range []int{2, 8} {
		c := captureAtWorkers(t, captureTestConfig(), w, 900)
		for i := range c.Ch0 {
			if c.Ch0[i] != ref.Ch0[i] || c.Ch1[i] != ref.Ch1[i] {
				t.Fatalf("workers=%d sample %d: floats differ from the serial capture", w, i)
			}
		}
	}
}

// serialChannel is the one-sample-at-a-time reference front end: per index,
// draw the jitter, evaluate the signal, draw the noise, quantize.
func serialChannel(cfg adc.Config, x sig.Signal, times []float64) []float64 {
	a, _ := adc.New(cfg)
	gain := cfg.Gain
	if gain == 0 {
		gain = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, len(times))
	for i, t := range times {
		te := t
		if cfg.JitterRMS > 0 {
			te += cfg.JitterRMS * rng.NormFloat64()
		}
		v := gain*x.At(te) + cfg.Offset
		if cfg.NoiseRMS > 0 {
			v += cfg.NoiseRMS * rng.NormFloat64()
		}
		out[i] = a.Quantize(v)
	}
	return out
}

func TestCaptureStreamMatchesDirectSampleOracle(t *testing.T) {
	// The captured sample stream, acquired with the evaluations fanned over
	// eight workers, must be bit-identical to the serial reference: clock
	// times drawn up front, then each channel sampled and quantized one
	// index at a time.
	cfg := captureTestConfig()
	period, d, t0 := 1e-8, 180e-12, 1e-7
	n := 400
	c := captureAtWorkers(t, cfg, 8, n)
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	seedBase := cfg.Seed + 1*7919 // first acquisition on a fresh TIADC
	c0, _ := adc.NewClock(period, t0, cfg.ClockJitterRMS, seedBase)
	c1, _ := adc.NewClock(period, t0+c.ActualD, cfg.ClockJitterRMS, seedBase+1)
	want0 := serialChannel(cfg.Ch0, tone, c0.Times(0, n))
	want1 := serialChannel(cfg.Ch1, tone, c1.Times(0, n))
	if c.ActualD != d+cfg.DCDE.Bias {
		t.Fatalf("actual delay %g", c.ActualD)
	}
	for i := range want0 {
		if c.Ch0[i] != want0[i] || c.Ch1[i] != want1[i] {
			t.Fatalf("sample %d: capture differs from serial oracle", i)
		}
	}
}

func TestCaptureFloatFallbackWithoutQuantizer(t *testing.T) {
	// Ideal (unquantized) channels skip quantization; the capture must
	// still be worker-count invariant.
	cfg := Config{DCDE: DCDE{Min: 0, Max: 1e-9}, ClockJitterRMS: 3e-12, Seed: 5,
		Ch0: adc.Config{JitterRMS: 2e-12, NoiseRMS: 1e-3, Seed: 1},
		Ch1: adc.Config{JitterRMS: 2e-12, NoiseRMS: 1e-3, Seed: 2}}
	a := captureAtWorkers(t, cfg, 1, 333)
	b := captureAtWorkers(t, cfg, 8, 333)
	for i := range a.Ch0 {
		if a.Ch0[i] != b.Ch0[i] || a.Ch1[i] != b.Ch1[i] {
			t.Fatalf("sample %d: unquantized capture not worker-count invariant", i)
		}
	}
}

// TestDCDEStuck: a frozen control word ignores the programmed setting and
// always realises StuckAt (plus bias) — range validation still applies to
// the nominal, and the stuck path bypasses quantization of the setting.
func TestDCDEStuck(t *testing.T) {
	d := DCDE{Step: 10e-12, Min: 0, Max: 480e-12, Bias: 3e-12, Stuck: true, StuckAt: 8e-12}
	for _, nominal := range []float64{0, 180e-12, 480e-12} {
		got, err := d.Set(nominal)
		if err != nil {
			t.Fatalf("Set(%g): %v", nominal, err)
		}
		if got != 11e-12 {
			t.Errorf("Set(%g) = %g, want stuck 11e-12", nominal, got)
		}
	}
	if _, err := d.Set(500e-12); err == nil {
		t.Error("out-of-range nominal must still error when stuck")
	}
	d.Stuck = false
	got, err := d.Set(180e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 183e-12 {
		t.Errorf("unstuck Set = %g, want 183e-12", got)
	}
}
