package pnbs

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// mixAt is the inline oracle of the grid path: the per-instant At
// reconstruction mixed down around fc, 2·At(t)·exp(-i2π·fc·t).
func mixAt(r *Reconstructor, fc, t float64) complex128 {
	v := r.At(t)
	s, c := math.Sincos(2 * math.Pi * fc * t)
	return complex(2*v*c, -2*v*s)
}

// gridVsAt evaluates EnvelopeGridInto on n points of the grid t0 + i/fs
// and returns it with the oracle values and their peak magnitude.
func gridVsAt(r *Reconstructor, fc, t0, fs float64, n int) (got, want []complex128, peak float64) {
	got = make([]complex128, n)
	r.EnvelopeGridInto(fc, t0, fs, got)
	want = make([]complex128, n)
	for i := range want {
		want[i] = mixAt(r, fc, t0+float64(i)/fs)
		peak = math.Max(peak, cmplx.Abs(want[i]))
	}
	return got, want, peak
}

// noisyCapture is toneCapture roughened with seeded uniform noise, so the
// per-phase tables are checked against data that is not a smooth tone.
func noisyCapture(band Band, d float64, n int, seed int64) (ch0, ch1 []float64) {
	ch0, ch1 = toneCapture(band, d, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range ch0 {
		ch0[i] += 0.1 * (2*rng.Float64() - 1)
		ch1[i] += 0.1 * (2*rng.Float64() - 1)
	}
	return ch0, ch1
}

// TestEnvelopeGridMatchesAt pins the measure stage's production path
// (EnvelopeGridInto over the gridPrep tables) against the inline mix of
// the per-instant At oracle, at the DESIGN §5f tier of 1e-9 relative to
// the peak.
func TestEnvelopeGridMatchesAt(t *testing.T) {
	band := paperBand()
	fc := band.Fc()
	const tol = 1e-9

	t.Run("commensurate", func(t *testing.T) {
		for _, d := range []float64{120e-12, 180.8e-12, 240e-12} {
			ch0, ch1 := noisyCapture(band, d, 260, 7)
			r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			lo, _ := r.ValidRange()
			for _, over := range []int{1, 2, 4, 8} {
				fs := float64(over) * band.B
				for _, off := range []float64{0, 0.37, 0.81} {
					t0 := lo + off/fs
					if g := r.buildGridPrep(t0, fs); g == nil || g.over != over {
						t.Fatalf("d=%g over=%d off=%g: no grid tables for this grid", d, over, off)
					}
					got, want, peak := gridVsAt(r, fc, t0, fs, 150*over)
					for i := range got {
						if e := cmplx.Abs(got[i] - want[i]); e > tol*peak {
							t.Fatalf("d=%g over=%d off=%g i=%d: grid %v vs At %v (err %g, peak %g)",
								d, over, off, i, got[i], want[i], e, peak)
						}
					}
				}
			}
		}
	})

	t.Run("capture edges", func(t *testing.T) {
		d := 180e-12
		ch0, ch1 := noisyCapture(band, d, 120, 11)
		r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The grid starts before the capture and runs past its end, so
		// the first and last instants have a clamped tap span and fall
		// back to At: those must equal the oracle bit for bit.
		const over = 4
		fs := over * band.B
		t0 := -10 * r.tStep
		n := over * 140
		got, want, peak := gridVsAt(r, fc, t0, fs, n)
		h := r.opt.HalfTaps
		clamped := 0
		for i := range got {
			tv := t0 + float64(i)/fs
			n0 := r.centre(tv)
			if n0-h < 0 || n0+h >= len(ch0) {
				clamped++
				if got[i] != want[i] {
					t.Fatalf("clamped i=%d t=%g: grid %v != At %v", i, tv, got[i], want[i])
				}
			} else if e := cmplx.Abs(got[i] - want[i]); e > tol*peak {
				t.Fatalf("interior i=%d: grid %v vs At %v (err %g, peak %g)", i, got[i], want[i], e, peak)
			}
		}
		if clamped == 0 || clamped == n {
			t.Fatalf("%d of %d instants clamped: the grid does not straddle the capture edges", clamped, n)
		}
	})

	t.Run("incommensurate rate", func(t *testing.T) {
		d := 180e-12
		ch0, ch1 := noisyCapture(band, d, 200, 13)
		r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := r.ValidRange()
		fs := 3.7 * band.B // not an integer multiple of the capture rate
		if g := r.buildGridPrep(lo, fs); g != nil {
			t.Fatalf("grid tables built for an incommensurate rate (over=%d)", g.over)
		}
		got, want, _ := gridVsAt(r, fc, lo, fs, 300)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("i=%d: grid %v != At %v on the per-instant fallback", i, got[i], want[i])
			}
		}
	})

	t.Run("each delay builds its own grid", func(t *testing.T) {
		ch0, ch1 := noisyCapture(band, 180e-12, 260, 17)
		r, err := NewReconstructor(band, 180e-12, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := r.ValidRange()
		fs := 4 * band.B
		before, _, _ := gridVsAt(r, fc, lo, fs, 600)
		// Same capture, same grid, another delay: the tables fold the
		// delay in, so the envelope must move and still match At.
		other, err := NewReconstructor(band, 240e-12, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, want, peak := gridVsAt(other, fc, lo, fs, 600)
		moved := false
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > tol*peak {
				t.Fatalf("i=%d at 240 ps: grid %v vs At %v (err %g, peak %g)", i, got[i], want[i], e, peak)
			}
			moved = moved || cmplx.Abs(got[i]-before[i]) > tol*peak
		}
		if !moved {
			t.Fatal("grid at 240 ps equals the grid at 180 ps: tables ignore the delay")
		}
	})
}

// TestGridTablesNeverFallBack counts, across the valid range, the grid
// instants whose tap span the phase tables decline (so that the grid path
// would send them to At), and requires none, for every oversampling
// factor EnvelopeOversampling can pick. Grids start on the valid range —
// the paper geometry, where 4x puts phase 2 on a half sample — and half a
// capture sample later, which puts a phase on a half sample at every
// factor. There every instant of the phase takes the upper centre, the
// phase's tabulated one, and the grid values must agree with At within
// FuzzEnvelopeGridVsAt's bound, 1e-9 of the conditioning scale.
func TestGridTablesNeverFallBack(t *testing.T) {
	band := paperBand()
	fc := band.Fc()
	const d = 180.8e-12
	ch0, ch1 := noisyCapture(band, d, 200, 19)
	r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.ValidRange()
	for over := 4; over <= 12; over++ {
		fs := float64(over) * band.B
		for _, t0 := range []float64{lo, lo + r.tStep/2} {
			g := r.buildGridPrep(t0, fs)
			if g == nil {
				t.Fatalf("over=%d: no grid tables", over)
			}
			n := int((hi-t0)*fs) + 1
			got := make([]complex128, n)
			r.EnvelopeGridInto(fc, t0, fs, got)
			fallbacks, ties := 0, 0
			for i := range got {
				tv := t0 + float64(i)/fs
				if _, _, _, ok := g.taps(r, i, tv); !ok {
					fallbacks++
					continue
				}
				x := (tv - r.t0) / r.tStep
				if math.Abs(x-math.Floor(x)-0.5) > 1e-6 {
					continue
				}
				ties++
				want := mixAt(r, fc, tv)
				if e := cmplx.Abs(got[i] - want); e > 1e-9*2*absAt(r, tv) {
					t.Fatalf("over=%d t0=%g i=%d on a half sample: grid %v vs At %v (err %g)",
						over, t0, i, got[i], want, e)
				}
			}
			if fallbacks != 0 {
				t.Errorf("over=%d t0=%g: %d of %d instants in the valid range fall back to At",
					over, t0, fallbacks, n)
			}
			// Phase over/2 of an even factor lands on a half sample from
			// the valid range's start; the shifted start puts phase 0 there.
			if wantTie := t0 != lo || over%2 == 0; wantTie && ties == 0 {
				t.Errorf("over=%d t0=%g: no instant on a half sample", over, t0)
			}
		}
	}
}

// TestCentreRule pins the tap-centre rule every Eq. (6) evaluator shares:
// the nearest capture sample, with an instant on a half sample, or within
// a few ulps of one, taking the upper centre on either side of t0, and
// one 2e-9·T below a half sample taking the lower. span clamps the
// centred support to the capture.
func TestCentreRule(t *testing.T) {
	band := paperBand()
	const d, t0 = 180e-12, 3.3e-7
	ch0, ch1 := toneCapture(band, d, 100)
	r, err := NewReconstructor(band, d, t0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tt := r.tStep
	for _, k := range []int{40, -3} {
		at := func(x float64) float64 { return t0 + (float64(k)+x)*tt }
		half := at(0.5)
		up, down := half, half
		for u := 0; u <= 4; u++ {
			if c, c2 := r.centre(up), r.centre(down); c != k+1 || c2 != k+1 {
				t.Errorf("k=%d: half sample %+d/−%d ulps centres on %d/%d, want %d", k, u, u, c, c2, k+1)
			}
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		}
		for _, c := range []struct {
			x    float64
			want int
		}{{0.5 - 2e-9, k}, {0.3, k}, {0.7, k + 1}, {0, k}} {
			if got := r.centre(at(c.x)); got != c.want {
				t.Errorf("k=%d x=%g: centre %d, want %d", k, c.x, got, c.want)
			}
		}
	}
	h := r.opt.HalfTaps
	for _, c := range []struct {
		n0, lo, hi int
	}{{0, 0, h}, {50, 50 - h, 50 + h}, {99, 99 - h, 99}, {-h - 1, 0, -1}} {
		if lo, hi := r.span(t0 + float64(c.n0)*tt); lo != c.lo || hi != c.hi {
			t.Errorf("span at sample %d = [%d, %d], want [%d, %d]", c.n0, lo, hi, c.lo, c.hi)
		}
	}
}

// TestEnvelopeGridUlpShiftStable shifts the start of a paper-geometry grid
// (4x from the valid range's start, which puts phase 2 on half samples) by
// a few ulps either way. Under the tie rule no instant changes centre, so
// the envelope moves by rounding only: at most 1e-10 of its peak.
func TestEnvelopeGridUlpShiftStable(t *testing.T) {
	band := paperBand()
	const d = 180.8e-12
	ch0, ch1 := noisyCapture(band, d, 2200, 23)
	r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := r.ValidRange()
	fs := 4 * band.B
	base := make([]complex128, 8192)
	r.EnvelopeGridInto(band.Fc(), lo, fs, base)
	peak := 0.0
	for _, v := range base {
		peak = math.Max(peak, cmplx.Abs(v))
	}
	got := make([]complex128, len(base))
	for _, ulps := range []int{1, 4, 16, -1, -4, -16} {
		t0 := lo
		for u := 0; u < ulps; u++ {
			t0 = math.Nextafter(t0, math.Inf(1))
		}
		for u := 0; u > ulps; u-- {
			t0 = math.Nextafter(t0, math.Inf(-1))
		}
		r.EnvelopeGridInto(band.Fc(), t0, fs, got)
		worst := 0.0
		for i := range got {
			worst = math.Max(worst, cmplx.Abs(got[i]-base[i]))
		}
		if worst > 1e-10*peak {
			t.Errorf("start shifted %+d ulps: envelope moved %.3g of its peak", ulps, worst/peak)
		}
	}
}

// absAt is the conditioning scale of At(t): the sum of the magnitudes of
// its tap terms, which bounds the rounding of any reassociated evaluation.
func absAt(r *Reconstructor, t float64) float64 {
	nLo, nHi := r.span(t)
	d := r.kern.D()
	acc := 0.0
	for n := nLo; n <= nHi; n++ {
		tn := r.t0 + float64(n)*r.tStep
		acc += math.Abs(r.ch0[n]*r.kern.S(t-tn)*r.window(t-tn)) +
			math.Abs(r.ch1[n]*r.kern.S(tn+d-t)*r.window(tn+d-t))
	}
	return acc
}

// FuzzEnvelopeGridVsAt differentially fuzzes the grid path against the
// inline mix of At on fuzzed delays, grid offsets, oversampling factors
// and capture contents. Grids run inside, across and outside the capture,
// so the table path, the clamped-edge fallback and the empty-support
// zeros are all reached; the bound is 1e-9 of the conditioning scale.
func FuzzEnvelopeGridVsAt(f *testing.F) {
	f.Add(0.36, 0.5, uint8(4), int64(1))
	f.Add(0.9, 0.0, uint8(1), int64(2))   // grid starting on a sample point
	f.Add(0.36, -1.5, uint8(8), int64(3)) // grid outside the valid range
	f.Add(0.123, 0.77, uint8(3), int64(4))
	f.Add(0.45, 0.25, uint8(2), int64(5))        // 3x from the capture start
	f.Add(0.36, 0.75, uint8(1), int64(6))        // 2x from a sample point: phase 1 on half samples
	f.Add(0.2, 0.25+36.5/72, uint8(3), int64(7)) // 4x from a half sample: phase 0 on half samples
	f.Fuzz(func(t *testing.T, dFrac, tFrac float64, over uint8, seed int64) {
		if math.IsNaN(dFrac) || math.IsInf(dFrac, 0) || math.IsNaN(tFrac) || math.IsInf(tFrac, 0) {
			t.Skip()
		}
		band := Band{FLow: 955e6, B: 90e6}
		maxD := 2 / band.B
		d := math.Remainder(dFrac, 2) * maxD / 2
		rng := rand.New(rand.NewSource(seed))
		n := 72
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
		fs := float64(1+over%8) * band.B
		span := float64(n) * r.tStep
		// Fold tFrac into [-0.5, 1.5] spans: inside, edges, and outside.
		t0 := (math.Remainder(tFrac, 2) - 0.25) * span
		got := make([]complex128, 33)
		r.EnvelopeGridInto(band.Fc(), t0, fs, got)
		scale := 0.0
		for i := range got {
			scale = math.Max(scale, 2*absAt(r, t0+float64(i)/fs))
		}
		for i := range got {
			tv := t0 + float64(i)/fs
			want := mixAt(r, band.Fc(), tv)
			if e := cmplx.Abs(got[i] - want); e > 1e-9*scale {
				t.Fatalf("d=%g fs=%g t=%g: grid %v vs At %v (err %g, scale %g)",
					d, fs, tv, got[i], want, e, scale)
			}
		}
	})
}

// BenchmarkGridPrep times one per-phase table build at the measure
// stage's geometry (paper band, over 4, 61 taps). BenchmarkEnvelopeGrid
// and perfbench's pnbs.envelope_grid_ns_per_pt include one such build per
// call; this row isolates it.
func BenchmarkGridPrep(b *testing.B) {
	band := paperBand()
	const d = 180e-12
	ch0, ch1 := toneCapture(band, d, 2400)
	r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{HalfTaps: 30})
	if err != nil {
		b.Fatal(err)
	}
	lo, _ := r.ValidRange()
	fs := band.B * 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := r.buildGridPrep(lo, fs); g == nil || g.over != 4 {
			b.Fatal("grid not commensurate at 4x")
		}
	}
}
