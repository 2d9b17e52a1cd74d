package modem

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
)

func defaultOFDM(t *testing.T) *OFDMEnvelope {
	t.Helper()
	o, err := NewOFDM(OFDMConfig{
		Subcarriers: 64,
		Spacing:     156.25e3, // ~10 MHz occupied
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOFDMValidation(t *testing.T) {
	if _, err := NewOFDM(OFDMConfig{Subcarriers: 3, Spacing: 1e5}); err == nil {
		t.Error("odd subcarriers must fail")
	}
	if _, err := NewOFDM(OFDMConfig{Subcarriers: 64}); err == nil {
		t.Error("zero spacing must fail")
	}
	if _, err := NewOFDM(OFDMConfig{Subcarriers: 64, Spacing: 1e5, CPFraction: 2}); err == nil {
		t.Error("CP > 1 must fail")
	}
	if _, err := NewOFDM(OFDMConfig{Subcarriers: 64, Spacing: 1e5, EdgeTaper: 0.9}); err == nil {
		t.Error("huge taper must fail")
	}
}

func TestOFDMDerivedQuantities(t *testing.T) {
	o := defaultOFDM(t)
	want := (1 + 0.125) / 156.25e3
	if math.Abs(o.tSym-want) > 1e-12 {
		t.Errorf("symbol period %g, want %g", o.tSym, want)
	}
}

func TestOFDMCyclicAndCP(t *testing.T) {
	o := defaultOFDM(t)
	period := float64(o.cfg.Symbols) * o.tSym
	for _, tv := range []float64{1e-6, 37e-6, 55.5e-6} {
		if d := cmplx.Abs(o.At(tv) - o.At(tv+period)); d > 1e-9 {
			t.Errorf("t=%g: stream not cyclic (diff %g)", tv, d)
		}
	}
	// Cyclic prefix: the signal at t inside the CP equals the signal one
	// useful-period later (within the flat part of the window).
	tin := o.tCP * 0.5
	a := o.At(tin + 3*o.tSym)
	b := o.At(tin + 3*o.tSym + o.tUseful)
	// Window differs slightly at the very edges; mid-CP both are tapered
	// similarly only if inside the flat region, so compare direction only.
	_ = a
	_ = b
	// Stronger CP check with taper disabled:
	o2, err := NewOFDM(OFDMConfig{Subcarriers: 16, Spacing: 1e6, Seed: 3, EdgeTaper: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	tin2 := o2.tCP * 0.5
	base := 2 * o2.tSym
	if d := cmplx.Abs(o2.At(base+tin2) - o2.At(base+tin2+o2.tUseful)); d > 1e-9 {
		t.Errorf("cyclic prefix violated: %g", d)
	}
}

func TestOFDMSpectrumConfined(t *testing.T) {
	o := defaultOFDM(t)
	fs := 40e6
	n := 1 << 14
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = o.At(float64(i) / fs)
	}
	spec, err := dsp.WelchComplex(xs, fs, 0, dsp.DefaultWelch(2048))
	if err != nil {
		t.Fatal(err)
	}
	inBand := spec.PowerInBand(-5.2e6, 5.2e6)
	outBand := spec.PowerInBand(8e6, 18e6) + spec.PowerInBand(-18e6, -8e6)
	if ratio := outBand / inBand; ratio > 0.01 {
		t.Errorf("out-of-band leakage %.3g of in-band", ratio)
	}
	// Spectral flatness across the occupied band (OFDM signature): compare
	// power in two quarters of the band.
	q1 := spec.PowerInBand(0.5e6, 2.5e6)
	q2 := spec.PowerInBand(2.5e6, 4.5e6)
	if r := q1 / q2; r < 0.5 || r > 2 {
		t.Errorf("occupied band not flat: %g", r)
	}
}

func TestOFDMPowerNormalisation(t *testing.T) {
	o := defaultOFDM(t)
	// Unit-energy constellation scaled by 1/sqrt(N) per subcarrier gives
	// E|env|^2 ~ 1 inside the flat window region.
	const nPts = 4096
	p := 0.0
	for i := 0; i < nPts; i++ {
		v := o.At(o.period * (float64(i) + 0.5) / nPts)
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= nPts
	if p < 0.7 || p > 1.2 {
		t.Errorf("avg power %g, want ~1", p)
	}
}

func TestOFDMDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) complex128 {
		o, _ := NewOFDM(OFDMConfig{Subcarriers: 32, Spacing: 1e6, Seed: seed})
		return o.At(3.3e-6)
	}
	if mk(5) != mk(5) {
		t.Error("same seed must reproduce")
	}
	if mk(5) == mk(6) {
		t.Error("different seeds should differ")
	}
}
