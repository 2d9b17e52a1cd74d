package adc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/par"
	"repro/internal/sig"
)

// SNRIdealDB returns the ideal quantization SNR 6.02 N + 1.76 dB for a
// full-scale sinusoid, or +Inf semantics (400) for an unquantized ADC.
func (a *ADC) SNRIdealDB() float64 {
	if a.cfg.Bits == 0 {
		return 400
	}
	return 6.02*float64(a.cfg.Bits) + 1.76
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Bits: -1}); err == nil {
		t.Error("negative bits must fail")
	}
	if _, err := New(Config{Bits: 31}); err == nil {
		t.Error("too many bits must fail")
	}
	if _, err := New(Config{Bits: 10}); err == nil {
		t.Error("missing full scale must fail")
	}
	if _, err := New(Config{JitterRMS: -1}); err == nil {
		t.Error("negative jitter must fail")
	}
	if _, err := New(Config{NoiseRMS: -1}); err == nil {
		t.Error("negative noise must fail")
	}
	a, err := New(Config{Bits: 10, FullScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg.Gain != 1 {
		t.Error("gain default")
	}
}

func TestQuantizeStepAndClip(t *testing.T) {
	a, _ := New(Config{Bits: 3, FullScale: 1}) // LSB = 0.25
	if a.LSB() != 0.25 {
		t.Fatalf("LSB %g", a.LSB())
	}
	// Mid-rise: 0 maps to +LSB/2.
	if got := a.Quantize(0); got != 0.125 {
		t.Errorf("Quantize(0) = %g", got)
	}
	if got := a.Quantize(0.3); got != 0.375 {
		t.Errorf("Quantize(0.3) = %g", got)
	}
	// Clipping at the rails.
	if got := a.Quantize(5); got != 0.875 {
		t.Errorf("positive clip %g", got)
	}
	if got := a.Quantize(-5); got != -0.875 {
		t.Errorf("negative clip %g", got)
	}
}

func TestQuantizeErrorBoundedProperty(t *testing.T) {
	a, _ := New(Config{Bits: 10, FullScale: 1})
	lsb := a.LSB()
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		v = math.Mod(v, 0.99) // stay inside the rails
		q := a.Quantize(v)
		return math.Abs(q-v) <= lsb/2+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIdealADCPassesThrough(t *testing.T) {
	a, _ := New(Config{})
	if a.Quantize(0.123456) != 0.123456 {
		t.Error("ideal ADC must not quantize")
	}
	if a.LSB() != 0 || a.SNRIdealDB() != 400 {
		t.Error("ideal ADC conventions")
	}
}

func TestQuantizationSNRCloseToIdeal(t *testing.T) {
	// A full-scale sine through a 10-bit quantizer should achieve ~61.96 dB.
	a, _ := New(Config{Bits: 10, FullScale: 1})
	n := 1 << 14
	fsr := 0.99
	errs := make([]float64, n)
	sigs := make([]float64, n)
	for i := range errs {
		v := fsr * math.Sin(2*math.Pi*0.01234567*float64(i))
		q := a.Quantize(v)
		errs[i] = q - v
		sigs[i] = v
	}
	snr := 20 * math.Log10(dsp.RMS(sigs)/dsp.RMS(errs))
	if math.Abs(snr-a.SNRIdealDB()) > 1.5 {
		t.Errorf("measured SNR %g dB vs ideal %g dB", snr, a.SNRIdealDB())
	}
}

func TestSampleAppliesGainOffsetNoise(t *testing.T) {
	a, _ := New(Config{Gain: 2, Offset: 0.5, Seed: 1})
	x := &sig.Tone{Amp: 1} // the constant 1
	got := a.Sample(x, []float64{0, 1e-9})
	for _, v := range got {
		if v != 2.5 {
			t.Errorf("sample %g, want 2.5", v)
		}
	}
	b, _ := New(Config{NoiseRMS: 0.1, Seed: 2})
	ys := b.Sample(x, make([]float64, 4096))
	dev := 0.0
	for _, v := range ys {
		dev += (v - 1) * (v - 1)
	}
	dev = math.Sqrt(dev / float64(len(ys)))
	if math.Abs(dev-0.1) > 0.01 {
		t.Errorf("noise rms %g, want 0.1", dev)
	}
}

func TestSampleJitterConvertsSlopeToNoise(t *testing.T) {
	// For a sinusoid of frequency f, jitter sigma_t produces amplitude noise
	// of rms A*2*pi*f*sigma_t/sqrt(2).
	jit := 3e-12
	f0 := 1e9
	a, _ := New(Config{JitterRMS: jit, Seed: 3})
	tone := &sig.Tone{Amp: 1, Freq: f0}
	n := 8192
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 1.111e-8 // incommensurate with the carrier
	}
	got := a.Sample(tone, ts)
	ideal := sig.SampleAt(tone, ts)
	errRMS := 0.0
	for i := range got {
		d := got[i] - ideal[i]
		errRMS += d * d
	}
	errRMS = math.Sqrt(errRMS / float64(n))
	want := 2 * math.Pi * f0 * jit / math.Sqrt2
	if errRMS < want/2 || errRMS > want*2 {
		t.Errorf("jitter-induced noise %g, want ~%g", errRMS, want)
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []float64 {
		a, _ := New(Config{JitterRMS: 1e-12, NoiseRMS: 1e-3, Seed: seed})
		return a.Sample(&sig.Tone{Amp: 1, Freq: 1e9}, uniformTimes(0, 1e-9, 32))
	}
	a1, a2, b := mk(7), mk(7), mk(8)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestClock(t *testing.T) {
	c, err := NewClock(1e-8, 2e-9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := c.Times(0, 3)
	want := []float64{2e-9, 1.2e-8, 2.2e-8}
	for i := range want {
		if math.Abs(ts[i]-want[i]) > 1e-18 {
			t.Fatalf("Times = %v", ts)
		}
	}
	// Offset start index.
	ts2 := c.Times(5, 1)
	if math.Abs(ts2[0]-(2e-9+5e-8)) > 1e-18 {
		t.Errorf("n0 offset: %g", ts2[0])
	}
	if _, err := NewClock(0, 0, 0, 0); err == nil {
		t.Error("period 0 must fail")
	}
	if _, err := NewClock(1, 0, -1, 0); err == nil {
		t.Error("negative jitter must fail")
	}
	// Jittered clock deviates from nominal with the right magnitude.
	j, _ := NewClock(1e-8, 0, 5e-12, 9)
	dev := 0.0
	jt := j.Times(0, 4096)
	for i, tv := range jt {
		d := tv - float64(i)*1e-8
		dev += d * d
	}
	dev = math.Sqrt(dev / float64(len(jt)))
	if math.Abs(dev-5e-12) > 1e-12 {
		t.Errorf("clock jitter rms %g", dev)
	}
}

func TestSNRIdealDB(t *testing.T) {
	a, _ := New(Config{Bits: 10, FullScale: 1})
	if math.Abs(a.SNRIdealDB()-61.96) > 0.01 {
		t.Errorf("ideal SNR %g", a.SNRIdealDB())
	}
}

func TestQuantizeWithNLProfile(t *testing.T) {
	nl, _ := NewBowNL(3, 1.0)
	a, err := New(Config{Bits: 3, FullScale: 1, NL: nl})
	if err != nil {
		t.Fatal(err)
	}
	// Mid-scale: bow adds ~1 LSB (0.25 V) to the reconstruction level.
	ideal, _ := New(Config{Bits: 3, FullScale: 1})
	d := a.Quantize(0.01) - ideal.Quantize(0.01)
	if math.Abs(d-0.25) > 0.05 {
		t.Errorf("NL shift %g, want ~0.25", d)
	}
	// Rails: bow is ~0 there.
	dr := a.Quantize(0.99) - ideal.Quantize(0.99)
	if math.Abs(dr) > 0.02 {
		t.Errorf("rail shift %g, want ~0", dr)
	}
}

func TestNLValidation(t *testing.T) {
	nl, _ := NewBowNL(4, 1.0)
	if _, err := New(Config{NL: nl}); err == nil {
		t.Error("NL on ideal ADC must fail")
	}
	if _, err := New(Config{Bits: 10, FullScale: 1, NL: nl}); err == nil {
		t.Error("NL size mismatch must fail")
	}
}

func TestAnalogThenQuantizeMatchesSample(t *testing.T) {
	cfg := Config{Bits: 10, FullScale: 1.5, Gain: 1.02, Offset: 3e-3,
		JitterRMS: 3e-12, NoiseRMS: 1e-3, Seed: 99}
	a1, _ := New(cfg)
	a2, _ := New(cfg)
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	times := uniformTimes(0, 1e-8, 500)
	want := a1.Sample(tone, times)
	// Split front end across several sequential calls, then quantize: the
	// random-stream order is per index, so the result is bit-identical.
	got := make([]float64, len(times))
	a2.Analog(tone, times[:137], got[:137])
	a2.Analog(tone, times[137:400], got[137:400])
	a2.Analog(tone, times[400:], got[400:])
	for i, v := range got {
		got[i] = a2.Quantize(v)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: split path %g != Sample %g", i, got[i], want[i])
		}
	}
}

// TestAnalogWorkerInvariance: Analog draws jitter then noise per index on
// the calling goroutine and fans only x.At out, so its held values equal a
// one-index-at-a-time reference bit for bit at every pool width.
func TestAnalogWorkerInvariance(t *testing.T) {
	cfg := Config{Gain: 0.97, Offset: -2e-3, JitterRMS: 3e-12, NoiseRMS: 1e-3, Seed: 5}
	tone := &sig.Tone{Amp: 1, Freq: 31e6}
	times := uniformTimes(0, 1e-8, 1000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	want := make([]float64, len(times))
	for i, t := range times {
		te := t
		te += cfg.JitterRMS * rng.NormFloat64()
		v := cfg.Gain*tone.At(te) + cfg.Offset
		v += cfg.NoiseRMS * rng.NormFloat64()
		want[i] = v
	}
	for _, w := range []int{1, 2, 8} {
		prev := par.SetWorkers(w)
		a, _ := New(cfg)
		got := make([]float64, len(times))
		a.Analog(tone, times, got)
		par.SetWorkers(prev)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d sample %d: %g != serial %g", w, i, got[i], want[i])
			}
		}
	}
}

// uniformTimes returns n instants t0, t0+dt, ..., t0+(n-1)dt.
func uniformTimes(t0, dt float64, n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = t0 + float64(i)*dt
	}
	return ts
}
