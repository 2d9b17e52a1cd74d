package rf

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/sig"
)

func TestAnalogLowpassDesignAndResponse(t *testing.T) {
	f, err := NewAnalogLowpass(20e6, 200e6, 60)
	if err != nil {
		t.Fatal(err)
	}
	if g := f.ResponseAt(0); math.Abs(g-1) > 1e-6 {
		t.Errorf("DC gain %g", g)
	}
	if g := f.ResponseAt(5e6); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain %g", g)
	}
	if g := f.ResponseAt(60e6); g > 0.01 {
		t.Errorf("stopband gain %g", g)
	}
	if f.GroupDelay() <= 0 {
		t.Error("group delay")
	}
}

func TestAnalogLowpassValidation(t *testing.T) {
	if _, err := NewAnalogLowpass(0, 1e6, 60); err == nil {
		t.Error("fc=0 must fail")
	}
	if _, err := NewAnalogLowpass(1e6, 0, 60); err == nil {
		t.Error("fsTap=0 must fail")
	}
	if _, err := NewAnalogLowpass(1e6, 1.5e6, 60); err == nil {
		t.Error("cutoff above Nyquist must fail")
	}
}

func TestAnalogFIRPassesSlowToneAligned(t *testing.T) {
	f, _ := NewAnalogLowpass(20e6, 200e6, 60)
	tone := &sig.ComplexTone{Amp: 1, Freq: 2e6}
	out := f.ApplyEnv(tone)
	// Group-delay compensation keeps the output phase-aligned.
	for _, tv := range []float64{0, 1e-7, 7.7e-7} {
		if d := cmplx.Abs(out.At(tv) - tone.At(tv)); d > 0.02 {
			t.Errorf("t=%g: misaligned by %g", tv, d)
		}
	}
}

func TestZOHHoldsValue(t *testing.T) {
	z := &ZOH{Fs: 1e6}
	ramp := sig.EnvelopeFunc(func(t float64) complex128 { return complex(t, 0) })
	held := z.ApplyEnv(ramp)
	if held.At(1.4e-6) != held.At(1.9e-6) {
		t.Error("value not held within the DAC period")
	}
	if held.At(1.4e-6) != complex(1e-6, 0) {
		t.Errorf("held value %v", held.At(1.4e-6))
	}
}

func TestTransmitterComposition(t *testing.T) {
	pa, _ := NewRappPA(1, 10, 2)
	pn, _ := NewPhaseNoise([]float64{1e4, 1e6}, []float64{-100, -130}, 32, 1)
	lp, _ := NewAnalogLowpass(30e6, 400e6, 50)
	cfg := TxConfig{
		Fc:          1e9,
		DAC:         &ZOH{Fs: 200e6},
		ReconFilter: lp,
		IQ:          FromImbalanceDB(0.2, 1, 0),
		PhaseNoise:  pn,
		PA:          pa,
	}
	tx, err := NewTransmitter(cfg, &sig.ComplexTone{Amp: 0.1, Freq: 3e6})
	if err != nil {
		t.Fatal(err)
	}
	if tx.Fc() != 1e9 {
		t.Error("Fc accessor")
	}
	d := tx.Describe()
	for _, frag := range []string{"homodyne", "DAC", "recon", "IQ", "PN", "rapp"} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q: %s", frag, d)
		}
	}
	// The output must be a bounded, non-trivial waveform.
	v := tx.Output().At(1e-6)
	if math.IsNaN(v) || v == 0 {
		t.Errorf("output sample %g", v)
	}
}

func TestTransmitterValidation(t *testing.T) {
	if _, err := NewTransmitter(TxConfig{Fc: 0}, &sig.ComplexTone{}); err == nil {
		t.Error("Fc=0 must fail")
	}
	if _, err := NewTransmitter(TxConfig{Fc: 1e9}, nil); err == nil {
		t.Error("nil baseband must fail")
	}
}

func TestIdealTransmitterIsTransparent(t *testing.T) {
	env := &sig.ComplexTone{Amp: 0.5, Freq: 4e6, Phase: 0.2}
	tx, err := NewTransmitter(TxConfig{Fc: 1e9}, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, tv := range []float64{0, 2.3e-8, 1.1e-6} {
		if tx.OutputEnvelope().At(tv) != env.At(tv) {
			t.Error("ideal chain must be transparent")
		}
	}
	// RF output equals Re{env e^{i 2 pi fc t}}.
	ref := &sig.Passband{Env: env, Fc: 1e9}
	for _, tv := range []float64{0, 3.7e-10, 9.1e-9} {
		if tx.Output().At(tv) != ref.At(tv) {
			t.Error("passband mismatch")
		}
	}
}

func TestTransmitterPACompressionShowsInOutput(t *testing.T) {
	pa, _ := NewRappPA(1, 0.5, 2) // saturates at 0.5
	tx, _ := NewTransmitter(TxConfig{Fc: 1e9, PA: pa}, &sig.ComplexTone{Amp: 5, Freq: 1e6})
	out := tx.OutputEnvelope().At(1e-7)
	if cmplx.Abs(out) > 0.51 {
		t.Errorf("PA output %g exceeds saturation", cmplx.Abs(out))
	}
}
