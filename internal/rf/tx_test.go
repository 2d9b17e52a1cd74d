package rf

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/sig"
)

func TestTransmitterComposition(t *testing.T) {
	pa, _ := NewRappPA(1, 10, 2)
	pn, _ := NewPhaseNoise([]float64{1e4, 1e6}, []float64{-100, -130}, 32, 1)
	cfg := TxConfig{
		Fc:         1e9,
		IQ:         FromImbalanceDB(0.2, 1, 0),
		PhaseNoise: pn,
		PA:         pa,
	}
	tx, err := NewTransmitter(cfg, &sig.ComplexTone{Amp: 0.1, Freq: 3e6})
	if err != nil {
		t.Fatal(err)
	}
	d := tx.Describe()
	for _, frag := range []string{"homodyne", "IQ", "PN", "rapp"} {
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
