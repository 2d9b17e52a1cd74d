package modem

import (
	"math"
	"testing"
)

func TestSRRCBasicShape(t *testing.T) {
	ts := 100e-9 // 10 MHz symbols as in the paper
	p, err := NewSRRC(ts, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.At(0); math.Abs(v-1) > 1e-12 {
		t.Errorf("peak %g, want 1", v)
	}
	// Even symmetry.
	for _, x := range []float64{0.3, 0.77, 1.5, 3.9} {
		if d := math.Abs(p.At(x*ts) - p.At(-x*ts)); d > 1e-12 {
			t.Errorf("asymmetry at %g Ts: %g", x, d)
		}
	}
	// Truncation beyond the span.
	if p.At(8.001*ts) != 0 || p.At(-9*ts) != 0 {
		t.Error("pulse not truncated")
	}
	if p.SymbolPeriod() != ts || p.SpanSymbols() != 8 {
		t.Error("accessors")
	}
}

func TestSRRCSingularityContinuity(t *testing.T) {
	ts := 1.0
	p, _ := NewSRRC(ts, 0.5, 8)
	// alpha = 0.5 puts the removable singularity at t = Ts/(4*0.5) = Ts/2.
	x0 := ts / 2
	v0 := p.At(x0)
	va := p.At(x0 * (1 - 1e-6))
	vb := p.At(x0 * (1 + 1e-6))
	if math.Abs(v0-va) > 1e-4 || math.Abs(v0-vb) > 1e-4 {
		t.Errorf("singularity discontinuous: %g vs %g, %g", v0, va, vb)
	}
	// Same check near t = 0 (the other removable singularity).
	if math.Abs(p.At(1e-11)-p.At(0)) > 1e-6 {
		t.Error("discontinuous at origin")
	}
}

func TestSRRCValidation(t *testing.T) {
	if _, err := NewSRRC(0, 0.5, 8); err == nil {
		t.Error("Ts=0 must fail")
	}
	if _, err := NewSRRC(1, 0, 8); err == nil {
		t.Error("alpha=0 must fail")
	}
	if _, err := NewSRRC(1, 1.5, 8); err == nil {
		t.Error("alpha>1 must fail")
	}
	p, err := NewSRRC(1, 0.25, 0)
	if err != nil || p.SpanSymbols() != 8 {
		t.Error("default span")
	}
}

func TestSRRCSelfConvolutionIsNyquist(t *testing.T) {
	// The SRRC convolved with itself must sample to ~0 at nonzero multiples
	// of Ts (it equals the RC pulse up to scale).
	ts := 1.0
	p, _ := NewSRRC(ts, 0.5, 10)
	conv := func(tau float64) float64 {
		dt := ts / 64
		acc := 0.0
		for t := -10 * ts; t <= 10*ts; t += dt {
			acc += p.At(t) * p.At(tau-t) * dt
		}
		return acc
	}
	peak := conv(0)
	if peak <= 0 {
		t.Fatal("degenerate convolution")
	}
	for k := 1; k <= 5; k++ {
		if v := math.Abs(conv(float64(k)*ts)) / peak; v > 5e-3 {
			t.Errorf("SRRC*SRRC at %d Ts = %g of peak, want ~0", k, v)
		}
	}
}

func TestPulseEnergyPositive(t *testing.T) {
	p, _ := NewSRRC(1, 0.5, 8)
	e := PulseEnergy(p, 32)
	if e <= 0 {
		t.Fatalf("energy %g", e)
	}
	// Oversample clamp path.
	e2 := PulseEnergy(p, 1)
	if math.Abs(e-e2)/e > 0.05 {
		t.Errorf("energy estimates disagree: %g vs %g", e, e2)
	}
}
