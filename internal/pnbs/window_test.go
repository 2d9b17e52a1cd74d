package pnbs

import (
	"math"
	"math/rand"
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

func TestWindowLUTMatchesExactSeries(t *testing.T) {
	for _, beta := range []float64{2, 8, 12} {
		lut := lutFor(beta)
		den := i0EvenSeries(beta * beta)
		worst := 0.0
		// Dense off-grid sweep of y = x^2 across the support.
		for i := 0; i < 20000; i++ {
			y := (float64(i) + 0.37) / 20000
			exact := i0EvenSeries(beta*beta*(1-y)) / den
			if e := math.Abs(lut.at(y) - exact); e > worst {
				worst = e
			}
		}
		if worst > 1e-12 {
			t.Errorf("beta %g: LUT error %g exceeds 1e-12", beta, worst)
		}
	}
}

// TestWindowLUTHornerMatchesCatmullRom pins the identity windowLUT.at
// rests on: its Horner cubic on coef equals, bit for bit, the Catmull-Rom
// form on the four samples bracketing each segment, rebuilt here from
// i0EvenSeries, at fr = 0, 1/2 and one seeded random fr per segment.
func TestWindowLUTHornerMatchesCatmullRom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, beta := range []float64{8, 2} {
		lut := lutFor(beta)
		den := i0EvenSeries(beta * beta)
		step := 1 / float64(lutSize)
		sample := func(k int) float64 {
			y := (float64(k) - 1) * step
			return i0EvenSeries(beta*beta*(1-y)) / den
		}
		v0, v1, v2 := sample(0), sample(1), sample(2)
		for i := 0; i < lutSize; i++ {
			v3 := sample(i + 3)
			for _, f := range []float64{0, 0.5, rng.Float64()} {
				// y = p/lutSize is exact, so at() sees p and fr = p - i.
				p := float64(i) + f
				fr := p - float64(i)
				want := v1 + 0.5*fr*(v2-v0+fr*(2*v0-5*v1+4*v2-v3+fr*(3*(v1-v2)+v3-v0)))
				if got := lut.at(p * step); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("beta %g segment %d fr %v: at() = %v, Catmull-Rom %v", beta, i, fr, got, want)
				}
			}
			v0, v1, v2 = v1, v2, v3
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
