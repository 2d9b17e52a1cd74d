package rf

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/sig"
)

// TwoToneResult summarises a two-tone intermodulation measurement.
type TwoToneResult struct {
	// ToneDB is the mean power of the two fundamentals (dB, arbitrary ref).
	ToneDB float64
	// IM3DB is the mean power of the two third-order products
	// (2f1 - f2, 2f2 - f1).
	IM3DB float64
	// IM5DB is the mean power of the two fifth-order products.
	IM5DB float64
	// IMD3dBc is the classic figure: fundamental minus IM3.
	IMD3dBc float64
	// OIP3DB is the extrapolated output third-order intercept
	// (tone + IMD3/2) in the same arbitrary reference.
	OIP3DB float64
}

// TwoToneTest drives a PA-bearing envelope chain with two equal tones at
// baseband offsets f1 and f2 (f1 < f2) of amplitude amp each and measures
// the intermodulation products on the output envelope, using a windowed
// DTFT over an observation of nSamples at rate fs.
func TwoToneTest(chain func(sig.Envelope) sig.Envelope, f1, f2, amp, fs float64, nSamples int) (*TwoToneResult, error) {
	if f1 >= f2 {
		return nil, fmt.Errorf("rf: two-tone test needs f1 < f2, got %g, %g", f1, f2)
	}
	if amp <= 0 || fs <= 0 || nSamples < 256 {
		return nil, fmt.Errorf("rf: two-tone test bad parameters (amp %g, fs %g, n %d)", amp, fs, nSamples)
	}
	need := 2*f2 - f1
	if need >= fs/2 {
		return nil, fmt.Errorf("rf: fs %g too low to observe IM3 at %g", fs, need)
	}
	t1 := &sig.ComplexTone{Amp: amp, Freq: f1}
	t2 := &sig.ComplexTone{Amp: amp, Freq: f2, Phase: 0.7}
	out := chain(sig.EnvelopeFunc(func(t float64) complex128 { return t1.At(t) + t2.At(t) }))
	xs := make([]complex128, nSamples)
	for i := range xs {
		xs[i] = out.At(float64(i) / fs)
	}
	mag := func(f float64) float64 {
		var acc complex128
		var gain float64
		for i, v := range xs {
			w := 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(nSamples-1))
			phi := -2 * math.Pi * f / fs * float64(i)
			s, c := math.Sincos(phi)
			acc += v * complex(w*c, w*s)
			gain += w
		}
		return math.Hypot(real(acc), imag(acc)) / gain
	}
	db := func(a float64) float64 {
		if a <= 0 {
			return -400
		}
		return 20 * math.Log10(a)
	}
	tone := (mag(f1) + mag(f2)) / 2
	im3 := (mag(2*f1-f2) + mag(2*f2-f1)) / 2
	im5 := (mag(3*f1-2*f2) + mag(3*f2-2*f1)) / 2
	res := &TwoToneResult{
		ToneDB: db(tone),
		IM3DB:  db(im3),
		IM5DB:  db(im5),
	}
	res.IMD3dBc = res.ToneDB - res.IM3DB
	res.OIP3DB = res.ToneDB + res.IMD3dBc/2
	return res, nil
}

// PAChain adapts a memoryless PA to the envelope-chain signature used by
// TwoToneTest.
func PAChain(p PA) func(sig.Envelope) sig.Envelope {
	return func(env sig.Envelope) sig.Envelope { return ApplyPA(p, env) }
}

func TestMemoryPolyPAValidation(t *testing.T) {
	if _, err := NewMemoryPolyPA(nil, 1e-9); err == nil {
		t.Error("no taps must fail")
	}
	if _, err := NewMemoryPolyPA([][3]complex128{{1}, {0.1}}, 0); err == nil {
		t.Error("multi-tap with tau 0 must fail")
	}
	p, err := NewMemoryPolyPA([][3]complex128{{1}}, 0)
	if err != nil || len(p.Taps) != 1 {
		t.Error("single-tap model")
	}
	if p.Describe() == "" {
		t.Error("describe")
	}
}

// TestMemoryPolyMemorylessMatchesStaticPolynomial: one tap degenerates to
// the static odd-order polynomial y = a1 v + a3 v |v|^2 + a5 v |v|^4.
func TestMemoryPolyMemorylessMatchesStaticPolynomial(t *testing.T) {
	coef := [3]complex128{complex(1, 0.1), complex(-0.05, 0.01), complex(0.001, 0)}
	mp, _ := NewMemoryPolyPA([][3]complex128{coef}, 0)
	env := &sig.ComplexTone{Amp: 0.8, Freq: 3e6, Phase: 0.4}
	out := mp.ApplyEnv(env)
	for _, tv := range []float64{0, 1.7e-8, 3.3e-7} {
		v := env.At(tv)
		r2 := real(v)*real(v) + imag(v)*imag(v)
		want := v * (coef[0] + coef[1]*complex(r2, 0) + coef[2]*complex(r2*r2, 0))
		if d := cmplx.Abs(out.At(tv) - want); d > 1e-12 {
			t.Errorf("t=%g: memoryless mismatch %g", tv, d)
		}
	}
}

func TestMemoryPolyPAMemoryChangesOutput(t *testing.T) {
	// With a second tap the output at time t depends on the past.
	mp, _ := NewMemoryPolyPA([][3]complex128{
		{1, complex(-0.05, 0)},
		{complex(0.2, 0), complex(-0.01, 0)},
	}, 25e-9)
	ramp := sig.EnvelopeFunc(func(t float64) complex128 {
		if t < 0 {
			return 0
		}
		return complex(t*1e7, 0)
	})
	out := mp.ApplyEnv(ramp)
	// At t just after 0, the delayed tap still sees zero; later it doesn't.
	early := out.At(1e-9)
	if cmplx.Abs(early-complex(1e-2, 0)*complex(1, 0)) > 1e-3 {
		// x(1ns) = 0.01; delayed tap sees x(-24ns) = 0.
		t.Errorf("early output %v", early)
	}
	late := out.At(100e-9)
	direct := complex(1e-6*1e7, 0)
	if cmplx.Abs(late-direct) < 0.1*cmplx.Abs(direct) {
		t.Error("memory tap contribution not visible")
	}
}

func TestTwoToneIMD3MatchesAnalytic(t *testing.T) {
	// For the baseband-equivalent model y = x + a3 x|x|^2 with two complex
	// tones of amplitude A each: IM3 amplitude = |a3| A^3 and each
	// fundamental compresses to A (1 + 3 a3 A^2). (The familiar 3/4 factor
	// belongs to the passband x^3 form, not the envelope form.)
	a3 := -0.01
	pa, err := NewMemoryPolyPA([][3]complex128{{1, complex(a3, 0)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	amp := 0.5
	res, err := TwoToneTest(PAChain(pa), 1e6, 1.3e6, amp, 20e6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	fund := amp * math.Abs(1+3*a3*amp*amp)
	wantIMD := 20 * math.Log10(fund/(math.Abs(a3)*amp*amp*amp))
	if math.Abs(res.IMD3dBc-wantIMD) > 1.5 {
		t.Errorf("IMD3 %g dBc, analytic %g", res.IMD3dBc, wantIMD)
	}
	// OIP3 consistency.
	if math.Abs(res.OIP3DB-(res.ToneDB+res.IMD3dBc/2)) > 1e-9 {
		t.Error("OIP3 bookkeeping")
	}
	// IM5 far below IM3 for a pure third-order device.
	if res.IM5DB > res.IM3DB-20 {
		t.Errorf("IM5 %g dB implausibly high vs IM3 %g dB", res.IM5DB, res.IM3DB)
	}
}

func TestTwoToneLinearPAHasNoIMD(t *testing.T) {
	res, err := TwoToneTest(PAChain(&LinearPA{Gain: 2}), 1e6, 1.4e6, 0.5, 20e6, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.IMD3dBc < 80 {
		t.Errorf("linear PA shows IMD3 %g dBc", res.IMD3dBc)
	}
}

func TestTwoToneMemoryPAAsymmetry(t *testing.T) {
	// Memory makes the two IM3 products unequal; our result averages them,
	// so compare a memoryless model against a memory model at identical
	// nominal coefficients: IMD must differ.
	memoryless, _ := NewMemoryPolyPA([][3]complex128{{1, complex(-0.02, 0)}}, 0)
	memory, _ := NewMemoryPolyPA([][3]complex128{
		{1, complex(-0.012, 0)},
		{0, complex(-0.008, 0.004)},
	}, 100e-9)
	r1, err := TwoToneTest(memoryless.ApplyEnv, 1e6, 1.3e6, 0.5, 20e6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TwoToneTest(memory.ApplyEnv, 1e6, 1.3e6, 0.5, 20e6, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.IMD3dBc-r2.IMD3dBc) < 0.2 {
		t.Error("memory effects invisible in IMD")
	}
}

func TestTwoToneValidation(t *testing.T) {
	ch := PAChain(&LinearPA{Gain: 1})
	if _, err := TwoToneTest(ch, 2e6, 1e6, 0.5, 20e6, 4096); err == nil {
		t.Error("f1 >= f2 must fail")
	}
	if _, err := TwoToneTest(ch, 1e6, 2e6, 0, 20e6, 4096); err == nil {
		t.Error("amp 0 must fail")
	}
	if _, err := TwoToneTest(ch, 1e6, 2e6, 0.5, 20e6, 16); err == nil {
		t.Error("too few samples must fail")
	}
	if _, err := TwoToneTest(ch, 1e6, 4.9e6, 0.5, 16e6, 4096); err == nil {
		t.Error("IM3 above Nyquist must fail")
	}
}

func TestReceiverValidationAndDemod(t *testing.T) {
	if _, err := NewReceiver(RxConfig{}); err == nil {
		t.Error("Fc=0 must fail")
	}
	if _, err := NewReceiver(RxConfig{Fc: 1e9, NoiseRMS: -1}); err == nil {
		t.Error("negative noise must fail")
	}
	rx, err := NewReceiver(RxConfig{Fc: 1e9, Gain: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A clean tone at fc + fb comes back as a complex tone at fb with
	// twice the amplitude (gain 2).
	in := &sig.Passband{Env: &sig.ComplexTone{Amp: 0.5, Freq: 3e6}, Fc: 1e9}
	bb, err := rx.SampleBaseband(in, 40e6, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Tone power at +3 MHz.
	var acc complex128
	for i, v := range bb {
		ph := -2 * math.Pi * 3e6 * float64(i) / 40e6
		s, c := math.Sincos(ph)
		acc += v * complex(c, s)
	}
	acc /= complex(float64(len(bb)), 0)
	if math.Abs(cmplx.Abs(acc)-1.0) > 0.05 {
		t.Errorf("recovered tone amplitude %g, want ~1.0", cmplx.Abs(acc))
	}
	// Sampling validation.
	if _, err := rx.SampleBaseband(in, 0, 0, 512); err == nil {
		t.Error("fs=0 must fail")
	}
	if _, err := rx.SampleBaseband(in, 40e6, 0, 4); err == nil {
		t.Error("too few samples must fail")
	}
}

func TestReceiverNoiseAndIQ(t *testing.T) {
	rx, _ := NewReceiver(RxConfig{Fc: 1e9, NoiseRMS: 0.1, Seed: 3})
	in := sig.Sum{} // the zero signal
	bb, err := rx.SampleBaseband(in, 40e6, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var p float64
	for _, v := range bb {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p = math.Sqrt(p / float64(2*len(bb)))
	if math.Abs(p-0.1) > 0.02 {
		t.Errorf("noise rms %g, want 0.1", p)
	}
	// Rx IQ imbalance produces an image.
	rxIQ, _ := NewReceiver(RxConfig{Fc: 1e9, IQ: FromImbalanceDB(1, 6, 0)})
	tone := &sig.Passband{Env: &sig.ComplexTone{Amp: 1, Freq: 4e6}, Fc: 1e9}
	bb2, err := rxIQ.SampleBaseband(tone, 40e6, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(f float64) float64 {
		var acc complex128
		for i, v := range bb2 {
			ph := -2 * math.Pi * f * float64(i) / 40e6
			s, c := math.Sincos(ph)
			acc += v * complex(c, s)
		}
		return cmplx.Abs(acc) / float64(len(bb2))
	}
	irr := 20 * math.Log10(probe(4e6)/probe(-4e6))
	want := FromImbalanceDB(1, 6, 0).ImageRejectionDB()
	if math.Abs(irr-want) > 1.5 {
		t.Errorf("Rx IRR %g dB vs analytic %g", irr, want)
	}
}
