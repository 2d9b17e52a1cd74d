package modem

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
)

func gmsk(t *testing.T) *CPMEnvelope {
	t.Helper()
	c, err := NewCPM(CPMConfig{SymbolRate: 1e6, BT: 0.3, Symbols: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCPMValidation(t *testing.T) {
	if _, err := NewCPM(CPMConfig{}); err == nil {
		t.Error("zero rate must fail")
	}
	if _, err := NewCPM(CPMConfig{SymbolRate: 1e6, ModIndex: -1}); err == nil {
		t.Error("negative h must fail")
	}
	if _, err := NewCPM(CPMConfig{SymbolRate: 1e6, BT: 0.01}); err == nil {
		t.Error("tiny BT must fail")
	}
	if _, err := NewCPM(CPMConfig{SymbolRate: 1e6, BT: 0.3, Symbols: 8}); err == nil {
		t.Error("stream shorter than the seam window must fail")
	}
}

func TestCPMConstantEnvelope(t *testing.T) {
	c := gmsk(t)
	for i := 0; i < 500; i++ {
		tv := 137e-9 * float64(i)
		if d := math.Abs(cmplx.Abs(c.At(tv)) - 1); d > 1e-12 {
			t.Fatalf("t=%g: envelope deviates by %g", tv, d)
		}
	}
}

func TestCPMPhaseContinuity(t *testing.T) {
	c := gmsk(t)
	// The phase trajectory must be continuous everywhere, including symbol
	// boundaries and the cyclic seam.
	prev := c.Phase(0)
	dt := 5e-9                                              // Ts/200
	maxStep := 2 * math.Pi * c.cfg.ModIndex * dt / c.ts * 3 // generous bound
	for i := 1; i < 60000; i++ {
		tv := float64(i) * dt
		ph := c.Phase(tv)
		if d := math.Abs(ph - prev); d > maxStep {
			t.Fatalf("phase jump %g rad at t=%g", d, tv)
		}
		prev = ph
	}
}

func TestCPMCyclicUpToPhaseRamp(t *testing.T) {
	c := gmsk(t)
	// env(t + P) = env(t) * exp(i Phi_N): a fixed rotation per period.
	rot := cmplx.Exp(complex(0, c.phaseAcc[len(c.data)]))
	for _, tv := range []float64{3e-6, 47.5e-6, 99.9e-6} {
		a := c.At(tv + c.period)
		b := c.At(tv) * rot
		if cmplx.Abs(a-b) > 1e-9 {
			t.Errorf("t=%g: period relation broken (%g)", tv, cmplx.Abs(a-b))
		}
	}
}

func TestMSKPhaseAdvancesQuarterTurn(t *testing.T) {
	// With h = 0.5 and a wideband pulse (BT large), each symbol advances
	// the phase by ~ +-pi/2 measured at symbol centres.
	c, err := NewCPM(CPMConfig{SymbolRate: 1e6, ModIndex: 0.5, BT: 2, Symbols: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The frequency pulse is centred at k Ts, so symbol k's transition
	// occupies [k Ts - Ts/2, k Ts + Ts/2].
	for k := 5; k < 40; k++ {
		d := c.Phase((float64(k)+0.5)*c.ts) - c.Phase((float64(k)-0.5)*c.ts)
		want := math.Pi / 2 * float64(c.data[k])
		if math.Abs(d-want) > 0.25 {
			t.Errorf("symbol %d: phase step %g, want ~%g", k, d, want)
		}
	}
}

func TestGMSKSpectrumCompact(t *testing.T) {
	c := gmsk(t)
	fs := 8e6
	n := 1 << 14
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = c.At(float64(i) / fs)
	}
	spec, err := dsp.WelchComplex(xs, fs, 0, dsp.DefaultWelch(2048))
	if err != nil {
		t.Fatal(err)
	}
	in := spec.PowerInBand(-750e3, 750e3)
	out := spec.PowerInBand(1.5e6, 3.5e6) + spec.PowerInBand(-3.5e6, -1.5e6)
	if out/in > 0.005 {
		t.Errorf("GMSK out-of-band power ratio %.3g", out/in)
	}
}

func TestCPMDeterministic(t *testing.T) {
	a, _ := NewCPM(CPMConfig{SymbolRate: 1e6, BT: 0.3, Symbols: 64, Seed: 4})
	b, _ := NewCPM(CPMConfig{SymbolRate: 1e6, BT: 0.3, Symbols: 64, Seed: 4})
	d, _ := NewCPM(CPMConfig{SymbolRate: 1e6, BT: 0.3, Symbols: 64, Seed: 5})
	if a.At(7.7e-6) != b.At(7.7e-6) {
		t.Error("same seed must reproduce")
	}
	if a.At(7.7e-6) == d.At(7.7e-6) {
		t.Error("different seeds should differ")
	}
	if a.ts != 1e-6 {
		t.Error("symbol period")
	}
}
