package dsp

import (
	"math"
	"math/rand"
	"testing"

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
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*0.05*float64(i)), 0)
	}
	y := f.Decimate(x, 1)
	if len(y) != n {
		t.Fatalf("output length %d != %d", len(y), n)
	}
	// Compare away from the edges.
	worst := 0.0
	for i := 100; i < n-100; i++ {
		if d := cabs(y[i] - x[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Errorf("aligned passband error %g", worst)
	}
}

// decimateDirect is the oracle of Decimate: the full linear convolution of
// x with the taps at every sample, cut to the "same"-length output aligned
// on the group delay, then every factor-th sample of it.
func decimateDirect(taps []float64, x []complex128, factor int) []complex128 {
	if len(x) == 0 {
		return []complex128{}
	}
	full := make([]complex128, len(x)+len(taps)-1)
	for i, v := range x {
		for j, h := range taps {
			full[i+j] += v * complex(h, 0)
		}
	}
	d := (len(taps) - 1) / 2
	same := full[d : d+len(x)]
	var out []complex128
	for i := 0; i < len(same); i += factor {
		out = append(out, same[i])
	}
	return out
}

// TestDecimateMatchesDirect checks the per-output polyphase sums against
// the filter-everything-then-discard oracle for every factor the envelope
// path can pick (1..12), odd and even tap counts, and inputs shorter than
// the filter, where every output reaches into the zero-padded edges.
func TestDecimateMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, nTaps := range []int{1, 2, 13, 30, 91} {
		taps := make([]float64, nTaps)
		for i := range taps {
			taps[i] = rng.NormFloat64()
		}
		f := &FIR{Taps: taps}
		for _, n := range []int{0, 1, 7, 45, 200, 1001} {
			x := randComplex(n, rng)
			// Rounding scale: the largest tap-magnitude sum times the
			// largest sample magnitude bounds every output's terms.
			sumTaps, peak := 0.0, 1.0
			for _, h := range taps {
				sumTaps += math.Abs(h)
			}
			for _, v := range x {
				peak = math.Max(peak, cabs(v))
			}
			scale := sumTaps * peak
			for factor := 1; factor <= 12; factor++ {
				got := f.Decimate(x, factor)
				want := decimateDirect(taps, x, factor)
				if len(got) != len(want) {
					t.Fatalf("taps=%d n=%d factor=%d: %d outputs, want %d", nTaps, n, factor, len(got), len(want))
				}
				for k := range want {
					if e := cabs(got[k] - want[k]); e > 1e-13*scale {
						t.Fatalf("taps=%d n=%d factor=%d out[%d] = %v, want %v (err %g)",
							nTaps, n, factor, k, got[k], want[k], e)
					}
				}
			}
		}
	}
	// A one-tap filter is a plain scaled subsampler, exactly.
	got := (&FIR{Taps: []float64{3}}).Decimate([]complex128{2, 1i, -1, 5}, 2)
	if len(got) != 2 || got[0] != 6 || got[1] != -3 {
		t.Errorf("one-tap decimation = %v, want [6 -3]", got)
	}
}

// TestConvolveMatchesDirect: at factor 1 the filter is a linear
// convolution. Zero-padding the input by len(taps)−1 on each side turns
// the "same"-length output into the full one, which must equal the
// textbook double sum at every lag.
func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 300)
	b := make([]float64, 41)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			want[i+j] += av * bv
		}
	}
	pad := len(b) - 1
	x := make([]complex128, len(a)+2*pad)
	for i, v := range a {
		x[pad+i] = complex(v, 0)
	}
	y := (&FIR{Taps: b}).Decimate(x, 1)
	// Output k holds full-convolution lag k + d − pad, d the group delay.
	off := pad - (len(b)-1)/2
	for i := range want {
		got := y[i+off]
		if math.Abs(real(got)-want[i]) > 1e-9 || imag(got) != 0 {
			t.Fatalf("Convolve[%d] = %v, want %g", i, got, want[i])
		}
	}
}

func TestConvolveEdgeCases(t *testing.T) {
	if got := (&FIR{Taps: []float64{1}}).Decimate(nil, 1); len(got) != 0 {
		t.Errorf("nil input gave %v, want no output", got)
	}
	got := (&FIR{Taps: []float64{3}}).Decimate([]complex128{2}, 1)
	if len(got) != 1 || got[0] != 6 {
		t.Errorf("scalar convolution = %v", got)
	}
}

// TestDecimateWorkerInvariance: the measure stage's decimation (the paper
// mask grid, 8192 points to 2048 with DecimationLowpass(4)) is
// bit-identical at any pool width.
func TestDecimateWorkerInvariance(t *testing.T) {
	lp, err := DecimationLowpass(4)
	if err != nil {
		t.Fatal(err)
	}
	x := randComplex(8192, rand.New(rand.NewSource(4)))
	var ref []complex128
	for _, w := range []int{1, 2, 8} {
		prev := par.SetWorkers(w)
		got := lp.Decimate(x, 4)
		par.SetWorkers(prev)
		if ref == nil {
			ref = got
			continue
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("workers=%d out[%d] = %v, want %v at workers 1", w, k, got[k], ref[k])
			}
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
