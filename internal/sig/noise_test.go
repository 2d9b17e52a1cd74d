package sig

import (
	"math"
	"testing"

	"repro/internal/dsp"
)

func TestBandNoisePowerAndBand(t *testing.T) {
	power := 0.25
	n := NewBandNoise(10e6, 20e6, power, 200, 42)
	// Estimate power by time averaging over a long window.
	fs := 100e6
	ns := 1 << 14
	x := make([]float64, ns)
	for i := range x {
		x[i] = n.At(float64(i) / fs)
	}
	if p := dsp.RMS(x); math.Abs(p*p-power) > 0.15*power {
		t.Errorf("noise power %g, want ~%g", p*p, power)
	}
	// Spectral confinement: out-of-band PSD must be far below in-band.
	xc := make([]complex128, len(x))
	for i, v := range x {
		xc[i] = complex(v, 0)
	}
	spec, err := dsp.WelchComplex(xc, fs, 0, dsp.DefaultWelch(4096))
	if err != nil {
		t.Fatal(err)
	}
	in := spec.PowerInBand(10e6, 20e6)
	out := spec.PowerInBand(25e6, 45e6)
	if out > in/1e6 {
		t.Errorf("out-of-band leakage: in %g vs out %g", in, out)
	}
}

func TestBandNoiseDeterministic(t *testing.T) {
	a := NewBandNoise(1e6, 2e6, 1, 50, 7)
	b := NewBandNoise(1e6, 2e6, 1, 50, 7)
	c := NewBandNoise(1e6, 2e6, 1, 50, 8)
	if a.At(1.23e-6) != b.At(1.23e-6) {
		t.Error("same seed must reproduce")
	}
	if a.At(1.23e-6) == c.At(1.23e-6) {
		t.Error("different seeds should differ")
	}
}

func TestBandNoiseMinTones(t *testing.T) {
	n := NewBandNoise(1e6, 2e6, 1, 0, 1) // clamps to 1 tone
	if v := n.At(0.5e-6); math.IsNaN(v) {
		t.Error("NaN from degenerate config")
	}
}

func TestPRBSProperties(t *testing.T) {
	for _, order := range []uint{7, 9, 15} {
		p, err := NewPRBS(order, 1)
		if err != nil {
			t.Fatal(err)
		}
		period := 1<<order - 1
		if int(p.mask) != period {
			t.Fatalf("period %d", period)
		}
		bits := p.Bits(2 * period)
		// Maximal-length property: exactly 2^(order-1) ones per period.
		ones := 0
		for _, b := range bits[:period] {
			ones += b
		}
		if ones != 1<<(order-1) {
			t.Errorf("order %d: %d ones per period, want %d", order, ones, 1<<(order-1))
		}
		// Periodicity.
		for i := 0; i < period; i++ {
			if bits[i] != bits[i+period] {
				t.Fatalf("order %d: sequence not periodic at %d", order, i)
			}
		}
	}
}

func TestPRBSZeroSeedAndBadOrder(t *testing.T) {
	p, err := NewPRBS(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero register would lock up; implementation must avoid it.
	bits := p.Bits(100)
	any := 0
	for _, b := range bits {
		any += b
	}
	if any == 0 {
		t.Error("PRBS stuck at zero")
	}
	if _, err := NewPRBS(8, 1); err == nil {
		t.Error("unsupported order must error")
	}
}
