package pnbs

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/par"
)

// gridDecimate is EnvelopeInto's oracle: EnvelopeGridInto at over·fsEnv
// followed by DecimationLowpass(over).Decimate. It returns the envelope
// with the factor and the lowpass length.
func gridDecimate(t testing.TB, r *Reconstructor, fc, t0, fsEnv float64, n int) (want []complex128, over, nTaps int) {
	t.Helper()
	over, ok := dsp.EnvelopeOversampling(fc, fsEnv)
	if !ok {
		t.Fatalf("no oversampling factor for fc %g, rate %g", fc, fsEnv)
	}
	lp, err := dsp.DecimationLowpass(over)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]complex128, n*over)
	r.EnvelopeGridInto(fc, t0, fsEnv*float64(over), raw)
	return lp.Decimate(raw, over), over, lp.Len()
}

// bandCapture samples two in-band tones of band, roughened with seeded
// uniform noise, on both channels of a capture with delay d.
func bandCapture(band Band, d float64, n int, seed int64) (ch0, ch1 []float64) {
	rng := rand.New(rand.NewSource(seed))
	f1, f2 := band.Fc()+0.13*band.B, band.Fc()-0.31*band.B
	x := func(t float64) float64 {
		return math.Cos(2*math.Pi*f1*t) + 0.4*math.Sin(2*math.Pi*f2*t) + 0.1*(2*rng.Float64()-1)
	}
	tt := band.T()
	ch0 = make([]float64, n)
	ch1 = make([]float64, n)
	for i := range ch0 {
		ch0[i] = x(float64(i) * tt)
		ch1[i] = x(float64(i)*tt + d)
	}
	return ch0, ch1
}

// envelopeAt runs EnvelopeInto at a fixed worker count.
func envelopeAt(t *testing.T, workers int, r *Reconstructor, fc, t0, fsEnv float64, n int) []complex128 {
	t.Helper()
	defer par.SetWorkers(par.SetWorkers(workers))
	got := make([]complex128, n)
	if err := r.EnvelopeInto(fc, t0, fsEnv, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestEnvelopeMatchesGridDecimate pins the composite rate-B envelope
// against its oracle on the paper band (4x), an integer-positioned band
// (s0 = 0) and fc 1.45 GHz with B 90 MHz, where EnvelopeOversampling
// skips 4x. Outputs whose lowpass reaches past the grid's ends must be
// the oracle's bits, the interior must agree within 1e-10 of the peak, and
// the result must not depend on the worker count. A rate that is not the
// capture rate sends the whole grid through the oracle, bit for bit.
func TestEnvelopeMatchesGridDecimate(t *testing.T) {
	for _, band := range []Band{
		paperBand(),
		{FLow: 900e6, B: 90e6},  // integer positioned
		{FLow: 1405e6, B: 90e6}, // fc 1.45 GHz: 4x puts the 2fc image in band
	} {
		d := band.OptimalD()
		for _, n := range []int{64, 2048} {
			ch0, ch1 := bandCapture(band, d, n+100, 31)
			r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			lo, _ := r.ValidRange()
			fc := band.Fc()
			want, over, nTaps := gridDecimate(t, r, fc, lo, band.B, n)
			got := envelopeAt(t, 1, r, fc, lo, band.B, n)
			if got4 := envelopeAt(t, 4, r, fc, lo, band.B, n); !identical(got, got4) {
				t.Fatalf("band %v n=%d: envelope differs between 1 and 4 workers", band, n)
			}
			peak := 0.0
			for _, v := range want {
				peak = math.Max(peak, cmplx.Abs(v))
			}
			dc := (nTaps - 1) / 2
			edges, worst := 0, 0.0
			for k := range got {
				if k*over+dc-(nTaps-1) < 0 || k*over+dc >= n*over {
					edges++
					if got[k] != want[k] {
						t.Errorf("band %v n=%d: edge output %d is %v, oracle %v", band, n, k, got[k], want[k])
					}
					continue
				}
				worst = math.Max(worst, cmplx.Abs(got[k]-want[k]))
			}
			if worst > 1e-10*peak {
				t.Errorf("band %v n=%d (over %d): interior moved %.3g of the peak", band, n, over, worst/peak)
			}
			if edges == 0 || edges > 30 {
				t.Errorf("band %v n=%d (over %d): %d edge outputs", band, n, over, edges)
			}
			t.Logf("band %v n=%d over %d: %d edge outputs, interior within %.3g of the peak",
				band, n, over, edges, worst/peak)
		}
	}

	t.Run("rate off the capture rate", func(t *testing.T) {
		band := paperBand()
		d := band.OptimalD()
		ch0, ch1 := bandCapture(band, d, 300, 37)
		r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := r.ValidRange()
		fsEnv := 0.9 * band.B
		want, _, _ := gridDecimate(t, r, band.Fc(), lo, fsEnv, 150)
		if got := envelopeAt(t, 2, r, band.Fc(), lo, fsEnv, 150); !identical(got, want) {
			t.Fatal("a rate off the capture rate is not the oracle's bits")
		}
	})

	t.Run("no oversampling factor", func(t *testing.T) {
		band := paperBand()
		ch0, ch1 := bandCapture(band, band.OptimalD(), 100, 41)
		r, err := NewReconstructor(band, band.OptimalD(), 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// 2fc = 27720·B, a multiple of every factor 4..12, aliases to 0.
		if err := r.EnvelopeInto(13860*band.B, 0, band.B, make([]complex128, 8)); err == nil {
			t.Fatal("fc = 13860 B: want an error, got none")
		}
	})
}

// identical reports whether a and b hold the same bits.
func identical(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// FuzzEnvelopeVsGridDecimate differentially fuzzes EnvelopeInto against
// EnvelopeGridInto + Decimate on fuzzed delays, grid starts and capture
// contents. Grids start inside, across and outside the capture, so clamped
// and empty tap spans fall inside the composite range and must send their
// outputs to the oracle path. The bound is 1e-10 of the conditioning
// scale: Σ|h| times the largest 2·absAt over the grid.
func FuzzEnvelopeVsGridDecimate(f *testing.F) {
	f.Add(0.36, 0.5, int64(1))
	f.Add(0.9, 0.0, int64(2))    // grid from the capture start: clamped spans
	f.Add(0.36, -1.5, int64(3))  // grid before the capture
	f.Add(0.123, 0.77, int64(4)) // grid running off the capture's end
	f.Add(0.2, 0.25+36.5/72, int64(5))
	f.Fuzz(func(t *testing.T, dFrac, tFrac float64, seed int64) {
		if math.IsNaN(dFrac) || math.IsInf(dFrac, 0) || math.IsNaN(tFrac) || math.IsInf(tFrac, 0) {
			t.Skip()
		}
		band := paperBand()
		d := math.Remainder(dFrac, 2) / band.B
		const n = 72
		rng := rand.New(rand.NewSource(seed))
		ch0 := make([]float64, n)
		ch1 := make([]float64, n)
		for i := range ch0 {
			ch0[i] = 2*rng.Float64() - 1
			ch1[i] = 2*rng.Float64() - 1
		}
		r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{HalfTaps: 6})
		if err != nil {
			t.Skip() // infeasible delay
		}
		fc := band.Fc()
		t0 := (math.Remainder(tFrac, 2) - 0.25) * float64(n) * r.tStep
		const nOut = 40
		want, over, _ := gridDecimate(t, r, fc, t0, band.B, nOut)
		got := make([]complex128, nOut)
		if err := r.EnvelopeInto(fc, t0, band.B, got); err != nil {
			t.Fatal(err)
		}
		lp, _ := dsp.DecimationLowpass(over)
		sumH := 0.0
		for _, h := range lp.Taps {
			sumH += math.Abs(h)
		}
		scale := 0.0
		for m := 0; m < nOut*over; m++ {
			scale = math.Max(scale, 2*absAt(r, t0+float64(m)/(band.B*float64(over))))
		}
		for k := range got {
			if e := cmplx.Abs(got[k] - want[k]); e > 1e-10*sumH*scale {
				t.Fatalf("d=%g t0=%g k=%d: composite %v vs oracle %v (err %g, scale %g)",
					d, t0, k, got[k], want[k], e, sumH*scale)
			}
		}
	})
}
