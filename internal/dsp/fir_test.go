package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
)

// Response evaluates the filter's complex frequency response at the
// normalised frequency nu (cycles/sample).
func (f *FIR) Response(nu float64) complex128 {
	var acc complex128
	for n, h := range f.Taps {
		phi := -2 * math.Pi * nu * float64(n)
		s, c := math.Sincos(phi)
		acc += complex(h*c, h*s)
	}
	return acc
}

// MagnitudeDB returns the magnitude response in dB at nu, clamped at -400 dB.
func (f *FIR) MagnitudeDB(nu float64) float64 {
	m := f.Response(nu)
	mag := math.Hypot(real(m), imag(m))
	if mag < 1e-20 {
		return -400
	}
	return 20 * math.Log10(mag)
}

// GroupDelay returns the group delay in samples of the (linear-phase) filter.
func (f *FIR) GroupDelay() float64 { return float64(len(f.Taps)-1) / 2 }

func TestDesignLowpassResponse(t *testing.T) {
	f, err := DesignLowpass(101, 0.1, KaiserWin, KaiserBeta(60))
	if err != nil {
		t.Fatal(err)
	}
	// Unity at DC.
	if g := cabs(f.Response(0)); math.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain = %g", g)
	}
	// Passband flat within 1 dB.
	for _, nu := range []float64{0.01, 0.05, 0.08} {
		if db := f.MagnitudeDB(nu); db < -1 || db > 1 {
			t.Errorf("passband %g: %g dB", nu, db)
		}
	}
	// Stopband below -50 dB past the transition.
	for _, nu := range []float64{0.16, 0.2, 0.3, 0.45} {
		if db := f.MagnitudeDB(nu); db > -50 {
			t.Errorf("stopband %g: %g dB", nu, db)
		}
	}
	// -6 dB point near the cutoff.
	if db := f.MagnitudeDB(0.1); math.Abs(db-(-6)) > 1.5 {
		t.Errorf("cutoff attenuation %g dB, want ~ -6", db)
	}
}

func TestDesignLowpassErrors(t *testing.T) {
	if _, err := DesignLowpass(0, 0.1, Hann, 0); err == nil {
		t.Error("numTaps 0 should fail")
	}
	if _, err := DesignLowpass(11, 0.6, Hann, 0); err == nil {
		t.Error("cutoff >= 0.5 should fail")
	}
	if _, err := DesignLowpass(11, 0, Hann, 0); err == nil {
		t.Error("cutoff 0 should fail")
	}
}

func TestFIRFilterDelayAlignment(t *testing.T) {
	// A filtered sinusoid well inside the passband should come out nearly
	// unchanged (same phase) thanks to the group-delay compensation.
	f, err := DesignLowpass(101, 0.2, KaiserWin, KaiserBeta(60))
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.05 * float64(i))
	}
	y := f.Filter(x)
	if len(y) != n {
		t.Fatalf("output length %d != %d", len(y), n)
	}
	// Compare away from the edges.
	worst := 0.0
	for i := 100; i < n-100; i++ {
		if d := math.Abs(y[i] - x[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Errorf("aligned passband error %g", worst)
	}
}

func TestFIRFilterComplexMatchesParts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, _ := DesignLowpass(31, 0.2, Hann, 0)
	n := 200
	x := make([]complex128, n)
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range x {
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
		x[i] = complex(re[i], im[i])
	}
	y := f.FilterComplex(x)
	yr, yi := f.Filter(re), f.Filter(im)
	for i := range y {
		if math.Abs(real(y[i])-yr[i]) > 1e-12 || math.Abs(imag(y[i])-yi[i]) > 1e-12 {
			t.Fatalf("complex filter mismatch at %d", i)
		}
	}
}

func TestFIRDecimate(t *testing.T) {
	f, _ := DesignLowpass(63, 0.1, KaiserWin, KaiserBeta(60))
	x := make([]complex128, 400)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*0.02*float64(i)), 0)
	}
	y := f.Decimate(x, 4)
	if len(y) != 100 {
		t.Fatalf("decimated length %d, want 100", len(y))
	}
	defer func() {
		if recover() == nil {
			t.Error("factor 0 should panic")
		}
	}()
	f.Decimate(x, 0)
}

func TestFIRGroupDelay(t *testing.T) {
	f := &FIR{Taps: make([]float64, 61)}
	if gd := f.GroupDelay(); gd != 30 {
		t.Errorf("group delay %g, want 30", gd)
	}
	if f.Len() != 61 {
		t.Errorf("Len %d", f.Len())
	}
}

func TestMagnitudeDBClamp(t *testing.T) {
	f := &FIR{Taps: []float64{0}}
	if db := f.MagnitudeDB(0.1); db != -400 {
		t.Errorf("zero filter magnitude %g, want clamp at -400", db)
	}
}

// TestFilterTapSpectrumCache: Filter's cached tap transform is the same
// transform Convolve computes, so outputs match the uncached path bit for
// bit on a miss, on a hit, after the taps are edited in place, and from
// concurrent callers; the cache makes exactly Convolve's plan lookups.
func TestFilterTapSpectrumCache(t *testing.T) {
	f, err := DesignLowpass(91, 0.45/4, KaiserWin, KaiserBeta(70))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 8192)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	uncached := func() []float64 {
		full := Convolve(x, f.Taps)
		d := (len(f.Taps) - 1) / 2
		return full[d : d+len(x)]
	}
	check := func(label string, got []float64) {
		t.Helper()
		want := uncached()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d: %g != uncached %g", label, i, got[i], want[i])
			}
		}
	}
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	hits, misses := obs.C("dsp.plan.hits"), obs.C("dsp.plan.misses")
	lookups := func(fn func()) int64 {
		h := hits.Value() + misses.Value()
		fn()
		return hits.Value() + misses.Value() - h
	}
	var miss, hit []float64
	nMiss := lookups(func() { miss = f.Filter(x) })
	nHit := lookups(func() { hit = f.Filter(x) })
	nConv := lookups(func() { Convolve(x, f.Taps) })
	if nMiss != nConv || nHit != nConv {
		t.Errorf("plan lookups: filter miss %d, hit %d, convolve %d", nMiss, nHit, nConv)
	}
	check("miss", miss)
	check("hit", hit)
	f.Taps[7] *= 1.5
	check("edited taps", f.Filter(x))
	outs := make([][]float64, 8)
	defer par.SetWorkers(par.SetWorkers(8))
	par.For(len(outs), func(i int) { outs[i] = f.Filter(x) })
	for i, o := range outs {
		check(fmt.Sprintf("concurrent caller %d", i), o)
	}
}
