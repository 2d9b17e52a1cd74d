package pnbs

import (
	"math"
	"math/rand"
	"testing"
)

// paperBand is the simulation configuration of Section V: fc = 1 GHz,
// B = 90 MHz, so fl = 955 MHz.
func paperBand() Band {
	return Band{FLow: 955e6, B: 90e6}
}

func TestBandDerivedQuantities(t *testing.T) {
	b := paperBand()
	if b.FHigh() != 1045e6 {
		t.Errorf("FHigh %g", b.FHigh())
	}
	if b.Fc() != 1e9 {
		t.Errorf("Fc %g", b.Fc())
	}
	if math.Abs(b.T()-1/90e6) > 1e-20 {
		t.Errorf("T %g", b.T())
	}
	// k = ceil(2*955/90) = ceil(21.22) = 22.
	if b.K() != 22 || b.KPlus() != 23 {
		t.Errorf("k = %d, k+ = %d", b.K(), b.KPlus())
	}
	// Optimal D = 1/(4 fc) = 250 ps.
	if math.Abs(b.OptimalD()-250e-12) > 1e-18 {
		t.Errorf("optimal D %g", b.OptimalD())
	}
	if b.IntegerPositioned() {
		t.Error("955/90 band must not be integer positioned")
	}
	ip := Band{FLow: 900e6, B: 90e6} // 2fl/B = 20 exactly
	if !ip.IntegerPositioned() {
		t.Error("900/90 band must be integer positioned")
	}
}

func TestNewBandValidation(t *testing.T) {
	if _, err := NewBand(0, 1); err == nil {
		t.Error("fl=0 must fail")
	}
	if _, err := NewBand(1, 0); err == nil {
		t.Error("B=0 must fail")
	}
}

func TestForbiddenDFamilies(t *testing.T) {
	b := paperBand()
	// T/k = 11.111ns/22 = 505.05 ps; T/(k+1) = 483.09 ps.
	forb := b.ForbiddenD(600e-12)
	if len(forb) != 2 {
		t.Fatalf("forbidden set %v", forb)
	}
	tt := b.T()
	found505, found483 := false, false
	for _, d := range forb {
		if math.Abs(d-tt/22) < 1e-15 {
			found505 = true
		}
		if math.Abs(d-tt/23) < 1e-15 {
			found483 = true
		}
	}
	if !found505 || !found483 {
		t.Errorf("forbidden values %v", forb)
	}
	// Integer-positioned band: only the k+1 family.
	ip := Band{FLow: 900e6, B: 90e6}
	f2 := ip.ForbiddenD(600e-12)
	for _, d := range f2 {
		if math.Abs(d-ip.T()/float64(ip.K())) < 1e-15 {
			t.Error("k family must not apply to integer-positioned bands")
		}
	}
}

func TestNewKernelStabilityConditions(t *testing.T) {
	b := paperBand()
	if _, err := NewKernel(b, 180e-12); err != nil {
		t.Fatalf("paper configuration rejected: %v", err)
	}
	// Exactly forbidden delays must be rejected.
	if _, err := NewKernel(b, b.T()/22); err == nil {
		t.Error("D = T/k must be rejected")
	}
	if _, err := NewKernel(b, b.T()/23); err == nil {
		t.Error("D = T/(k+1) must be rejected")
	}
	if _, err := NewKernel(b, 0); err == nil {
		t.Error("D = 0 must be rejected")
	}
	if _, err := NewKernel(Band{}, 1e-10); err == nil {
		t.Error("bad band must be rejected")
	}
	// Negative delay (the -1/(4fc) optimum) is legal.
	if _, err := NewKernel(b, -b.OptimalD()); err != nil {
		t.Errorf("negative optimal D rejected: %v", err)
	}
}

func TestKernelInterpolationIdentities(t *testing.T) {
	b := paperBand()
	k, err := NewKernel(b, 180e-12)
	if err != nil {
		t.Fatal(err)
	}
	// s(0) = 1: the analytic limits give s0(0)+s1(0) = 1.
	if v := k.S(0); math.Abs(v-1) > 1e-9 {
		t.Errorf("s(0) = %g, want 1", v)
	}
	// s(mT) = 0 for m != 0.
	for _, m := range []int{1, -1, 2, 5, -7, 13} {
		if v := k.S(float64(m) * b.T()); math.Abs(v) > 1e-9 {
			t.Errorf("s(%dT) = %g, want 0", m, v)
		}
	}
	if k.band != b || k.D() != 180e-12 {
		t.Error("accessors")
	}
}

func TestKernelS0VanishesForIntegerPositionedBand(t *testing.T) {
	ip := Band{FLow: 900e6, B: 90e6}
	k, err := NewKernel(ip, 180e-12)
	if err != nil {
		t.Fatal(err)
	}
	// s0 must vanish identically: a0 = b0 there, so β_0 = 0 and the kernel
	// skips the term; s(0) still 1 via s1.
	if k.beta[0] != 0 || !k.s0Zero {
		t.Errorf("β_0 = %g, s0Zero = %v for integer-positioned band", k.beta[0], k.s0Zero)
	}
	if v := k.S(0); math.Abs(v-1) > 1e-9 {
		t.Errorf("s(0) = %g", v)
	}
}

func TestCoefficientMetricBlowsUpNearForbidden(t *testing.T) {
	b := paperBand()
	opt := CoefficientMetric(b, b.OptimalD())
	near := CoefficientMetric(b, b.T()/23*(1+1e-7))
	if near < 100*opt {
		t.Errorf("metric near forbidden %g not >> optimal %g", near, opt)
	}
	if !math.IsInf(CoefficientMetric(b, b.T()/23), 1) &&
		CoefficientMetric(b, b.T()/23) < 1e6 {
		t.Error("metric at forbidden should explode")
	}
	// The optimal D should be close to a local minimum: sample around it.
	for _, f := range []float64{0.8, 0.9, 1.1, 1.2} {
		if CoefficientMetric(b, b.OptimalD()*f) < opt*0.8 {
			t.Errorf("D = %g x optimal beats optimal substantially", f)
		}
	}
}

func TestSpectralErrorBoundPaperExample(t *testing.T) {
	// Paper Eq. (5): fc = 1 GHz, B = 80 MHz -> fl = 960 MHz, k+1 = 25;
	// 1 % error requires dD <= ~2 ps.
	b := Band{FLow: 960e6, B: 80e6}
	if b.KPlus() != 25 {
		t.Fatalf("k+1 = %d, want 25", b.KPlus())
	}
	dd := DeltaDFor(b, 0.01)
	if dd < 1.4e-12 || dd > 2.2e-12 {
		t.Errorf("dD for 1%% = %g s, want ~1.6-2 ps", dd)
	}
	// Round trip.
	if e := SpectralErrorBound(b, dd); math.Abs(e-0.01) > 1e-12 {
		t.Errorf("bound round trip %g", e)
	}
	// Bound is even in dD.
	if SpectralErrorBound(b, -1e-12) != SpectralErrorBound(b, 1e-12) {
		t.Error("bound must use |dD|")
	}
}

func TestReconstructorExactOnInBandTones(t *testing.T) {
	b := paperBand()
	d := 180e-12
	tt := b.T()
	n := 400
	t0 := 0.0
	rng := rand.New(rand.NewSource(33))
	// Three random in-band tones.
	type tone struct{ a, f, p float64 }
	tones := make([]tone, 3)
	for i := range tones {
		tones[i] = tone{
			a: 0.5 + rng.Float64(),
			f: b.FLow + (0.1+0.8*rng.Float64())*b.B,
			p: 2 * math.Pi * rng.Float64(),
		}
	}
	eval := func(tv float64) float64 {
		v := 0.0
		for _, tn := range tones {
			v += tn.a * math.Cos(2*math.Pi*tn.f*tv+tn.p)
		}
		return v
	}
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = eval(t0 + float64(i)*tt)
		ch1[i] = eval(t0 + float64(i)*tt + d)
	}
	r, err := NewReconstructor(b, d, t0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.ValidRange()
	if lo >= hi {
		t.Fatalf("empty valid range [%g, %g]", lo, hi)
	}
	var maxRel, amp float64
	for _, tn := range tones {
		amp += tn.a
	}
	for i := 0; i < 200; i++ {
		tv := lo + (hi-lo)*rng.Float64()
		got := r.At(tv)
		want := eval(tv)
		if rel := math.Abs(got-want) / amp; rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 5e-3 {
		t.Errorf("max relative reconstruction error %g, want < 5e-3", maxRel)
	}
}

func TestReconstructorAccuracyImprovesWithTaps(t *testing.T) {
	b := paperBand()
	d := 180e-12
	tt := b.T()
	n := 600
	f0 := 1.001e9
	eval := func(tv float64) float64 { return math.Cos(2 * math.Pi * f0 * tv) }
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = eval(float64(i) * tt)
		ch1[i] = eval(float64(i)*tt + d)
	}
	errWith := func(half int) float64 {
		r, err := NewReconstructor(b, d, 0, ch0, ch1, Options{HalfTaps: half})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := r.ValidRange()
		rng := rand.New(rand.NewSource(7))
		worst := 0.0
		for i := 0; i < 100; i++ {
			tv := lo + (hi-lo)*rng.Float64()
			if e := math.Abs(r.At(tv) - eval(tv)); e > worst {
				worst = e
			}
		}
		return worst
	}
	e15, e60 := errWith(15), errWith(60)
	if e60 >= e15 {
		t.Errorf("more taps did not help: 31-tap err %g vs 121-tap err %g", e15, e60)
	}
}

func TestReconstructorWrongDelayDegrades(t *testing.T) {
	b := paperBand()
	d := 180e-12
	tt := b.T()
	n := 400
	f0 := 0.99e9
	eval := func(tv float64) float64 { return math.Cos(2 * math.Pi * f0 * tv) }
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = eval(float64(i) * tt)
		ch1[i] = eval(float64(i)*tt + d)
	}
	rmsErr := func(dHat float64) float64 {
		r, err := NewReconstructor(b, dHat, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := r.ValidRange()
		rng := rand.New(rand.NewSource(9))
		acc := 0.0
		const m = 150
		for i := 0; i < m; i++ {
			tv := lo + (hi-lo)*rng.Float64()
			e := r.At(tv) - eval(tv)
			acc += e * e
		}
		return math.Sqrt(acc / m)
	}
	e0 := rmsErr(d)
	e10 := rmsErr(d + 10e-12)
	e40 := rmsErr(d + 40e-12)
	if !(e0 < e10 && e10 < e40) {
		t.Errorf("delay-error degradation not monotone: %g, %g, %g", e0, e10, e40)
	}
}

func TestReconstructorValidation(t *testing.T) {
	b := paperBand()
	if _, err := NewReconstructor(b, 180e-12, 0, []float64{1}, []float64{1, 2}, Options{}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := NewReconstructor(b, 180e-12, 0, nil, nil, Options{}); err == nil {
		t.Error("empty capture must fail")
	}
	if _, err := NewReconstructor(b, 0, 0, make([]float64, 100), make([]float64, 100), Options{}); err == nil {
		t.Error("zero delay must fail")
	}
	if _, err := NewReconstructor(b, 180e-12, 0, make([]float64, 10), make([]float64, 10), Options{HalfTaps: 30}); err == nil {
		t.Error("capture shorter than taps must fail")
	}
}

func TestReconstructorEnvelopeDownconversion(t *testing.T) {
	// A tone at fc + fb must downconvert to a complex tone at fb.
	b := paperBand()
	d := 180e-12
	tt := b.T()
	n := 500
	fb := 8e6
	f0 := b.Fc() + fb
	eval := func(tv float64) float64 { return math.Cos(2 * math.Pi * f0 * tv) }
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = eval(float64(i) * tt)
		ch1[i] = eval(float64(i)*tt + d)
	}
	r, _ := NewReconstructor(b, d, 0, ch0, ch1, Options{})
	lo, _ := r.ValidRange()
	ts := make([]float64, 512)
	for i := range ts {
		ts[i] = lo + float64(i)*tt/4 // 4x oversampled envelope grid
	}
	env := make([]complex128, len(ts))
	r.EnvelopeGridInto(b.Fc(), lo, 4*b.B, env)
	// Windowed DTFT of the envelope: the desired complex tone sits at +fb
	// with amplitude ~1; the 2fc image aliases far out of band.
	phasor := func(f float64) float64 {
		var acc complex128
		var gain float64
		for i, v := range env {
			w := 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(len(env)-1))
			phi := -2 * math.Pi * f * (ts[i] - ts[0])
			s, c := math.Sincos(phi)
			acc += v * complex(w*c, w*s)
			gain += w
		}
		return math.Hypot(real(acc), imag(acc)) / gain
	}
	if a := phasor(fb); math.Abs(a-1) > 0.1 {
		t.Errorf("envelope tone amplitude at fb: %g, want ~1", a)
	}
	if a := phasor(-fb); a > 0.1 {
		t.Errorf("image at -fb: %g, want ~0", a)
	}
	if a := phasor(35e6); a > 0.1 {
		t.Errorf("out-of-band content at 35 MHz: %g", a)
	}
}
