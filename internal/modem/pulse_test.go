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
	if p.Ts != ts || p.Span != 8 {
		t.Error("fields")
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
	// NaN passes a plain range check; it would also key a fresh table per
	// call in the shared cache.
	if _, err := NewSRRC(1, math.NaN(), 8); err == nil {
		t.Error("alpha=NaN must fail")
	}
	if _, err := NewSRRC(math.NaN(), 0.5, 8); err == nil {
		t.Error("Ts=NaN must fail")
	}
	p, err := NewSRRC(1, 0.25, 0)
	if err != nil || p.Span != 8 {
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

// TestSRRCNearSingularityAccuracy: around x0 = 1/(4 alpha) the pulse
// divides two Taylor series instead of the cancelling textbook quotient,
// which was off by up to 8e-9 just outside its old 1e-8 limit band. The
// references are the peak-normalised pulse at the same float64 x,
// computed offline with 50-digit mpmath.
func TestSRRCNearSingularityAccuracy(t *testing.T) {
	for _, c := range []struct{ alpha, x, want float64 }{
		{0.5, 0.500000005, 0.50908181853766968631},
		{0.5, 0.499999995, 0.50908183425055814854},
		{0.5, 0.500000033, 0.5090817745415818155},
		{0.5, 0.5000001, 0.50908166926522759619},
		{0.5, 0.500001, 0.50908025510510083549},
		{0.5, 0.499999, 0.50908339768279493377},
		{0.5, 0.5001, 0.5089246958521076911},
		{0.5, 0.501, 0.50751037379305014338},
		{0.5, 0.49, 0.52477592125583481327},
		{0.5, 0.519, 0.47918245348462191567},
		{0.5, 0.521, 0.47603185478357667192},
		{0.35, 0.7142857192857143, 0.23785633812723745703},
		{0.35, 0.7142857092857143, 0.23785635212921890588},
		{0.35, 0.7142867142857143, 0.23785494493078081053},
		{0.35, 0.7142847142857143, 0.23785774532708767795},
		{0.35, 0.7152857142857143, 0.23645685449577147218},
		{1.0, 0.250000005, 0.78539815554346658552},
		{1.0, 0.249999995, 0.7853981712514298888},
		{1.0, 0.250001, 0.78539659259909544067},
		{1.0, 0.249999, 0.7853997341917489819},
		{1.0, 0.251, 0.78382534500485918644},
	} {
		p, err := NewSRRC(1, c.alpha, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{c.x, -c.x} {
			if got := p.At(x); math.Abs(got-c.want) > 1e-15 {
				t.Errorf("alpha %g, x %v: %.17g, want %.17g (err %.2g)",
					c.alpha, x, got, c.want, got-c.want)
			}
		}
	}
	// Exactly at x0 the pulse keeps the closed-form limit, bit for bit.
	for _, a := range []float64{0.5, 1} {
		p, _ := NewSRRC(1, a, 8)
		limit := a / math.Sqrt2 * ((1+2/math.Pi)*math.Sin(math.Pi/(4*a)) +
			(1-2/math.Pi)*math.Cos(math.Pi/(4*a)))
		if got, want := p.At(1/(4*a)), limit/(1-a+4*a/math.Pi); got != want {
			t.Errorf("alpha %g: At(x0) = %.17g, want the limit %.17g", a, got, want)
		}
	}
}
