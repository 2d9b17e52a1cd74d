package pnbs

import (
	"math"
	"testing"
)

// toneCapture samples a paper-band tone into the two channels.
func toneCapture(band Band, d float64, n int) (ch0, ch1 []float64) {
	tt := band.T()
	ch0 = make([]float64, n)
	ch1 = make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = math.Cos(2 * math.Pi * 1.003e9 * float64(i) * tt)
		ch1[i] = math.Cos(2 * math.Pi * 1.003e9 * (float64(i)*tt + d))
	}
	return ch0, ch1
}

// i0OfSquare is the test's exact reference for the taper: I0 as a
// function of its squared argument, i0OfSquare(u*u) = I0(u), summed from
// the series in w = u^2 so no square root enters. Every term is positive.
func i0OfSquare(w float64) float64 {
	sum, term := 1.0, 1.0
	for k := 1; k < 400; k++ {
		term *= w / (4 * float64(k) * float64(k))
		sum += term
		if term < 1e-17*sum {
			break
		}
	}
	return sum
}

// TestWindowLUTMatchesExactSeries is the taper table's accuracy contract:
// over a dense off-grid sweep of y = x^2, the max absolute error of at
// against the exact squared-argument series stays within, per beta, the
// error of the 32,768-segment Catmull-Rom table the 2048-cell fit
// replaced (2.0e-15 at beta 4 rising to 6.8e-14 at beta 12, measured over
// 2 M points). The fit itself reaches 1.4e-15 to 1.5e-14. At beta 2 both
// tables sit at the rounding floor (1.1e-15 before, 1.3e-15 now), so that
// beta is held to 2e-15 rather than to the old table's figure.
func TestWindowLUTMatchesExactSeries(t *testing.T) {
	bounds := []struct{ beta, max float64 }{
		{2, 2.0e-15}, {4, 2.0e-15}, {6, 6.7e-15}, {8, 1.7e-14}, {10, 3.7e-14}, {12, 6.8e-14},
	}
	const n = 200000
	for _, b := range bounds {
		lut := lutFor(b.beta)
		den := i0OfSquare(b.beta * b.beta)
		worst := 0.0
		for i := 0; i < n; i++ {
			y := (float64(i) + 0.37) / n
			exact := i0OfSquare(b.beta*b.beta*(1-y)) / den
			if e := math.Abs(lut.at(y) - exact); e > worst {
				worst = e
			}
		}
		if worst > b.max {
			t.Errorf("beta %g: LUT error %.3g exceeds %.2g", b.beta, worst, b.max)
		}
	}
}

func TestWindowLUTSharedAcrossReconstructors(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	ch0, ch1 := toneCapture(band, 180e-12, 256)
	r1, err := NewReconstructor(band, 180e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReconstructor(band, 210e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.win == nil || r1.win != r2.win {
		t.Error("same-beta reconstructors must share one window table")
	}
}

func TestNegativeKaiserBetaIsRectangular(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	ch0, ch1 := toneCapture(band, d, 256)
	rect, err := NewReconstructor(band, d, 0, ch0, ch1, Options{KaiserBeta: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rect.win != nil {
		t.Fatal("negative beta must disable the taper")
	}
	// Inside the support the rectangular taper is exactly 1, outside 0.
	h := (float64(rect.opt.HalfTaps + 1)) * band.T()
	for _, frac := range []float64{0, 0.3, 0.9, 0.999} {
		if w := rect.window(frac * h); w != 1 {
			t.Errorf("window(%.3f support) = %g, want 1", frac, w)
		}
	}
	if w := rect.window(1.001 * h); w != 0 {
		t.Errorf("window outside support = %g, want 0", w)
	}
	// And it must genuinely differ from the defaulted beta = 8 taper.
	kaiser, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := rect.ValidRange()
	same := true
	for i := 0; i < 50; i++ {
		tv := lo + (hi-lo)*float64(i)/49
		if rect.At(tv) != kaiser.At(tv) {
			same = false
			break
		}
	}
	if same {
		t.Error("rectangular and Kaiser reconstructions are identical")
	}
}
