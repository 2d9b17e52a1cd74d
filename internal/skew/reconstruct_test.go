package skew

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pnbs"
)

// reconCase is one capture geometry of TestReconstructMatchesAt.
type reconCase struct {
	name           string
	bandB, bandB1  pnbs.Band
	d              float64 // true skew baked into the captures
	opt            pnbs.Options
	noise          float64 // uniform capture noise amplitude
	dHats          []float64
	toneLo, toneHi float64 // the three test tones span [toneLo, toneHi]
}

// reconEvaluator captures three tones in [toneLo, toneHi] at both rates,
// adds the case's noise and builds the evaluator over 150 instants.
func reconEvaluator(t *testing.T, rc reconCase) *CostEvaluator {
	t.Helper()
	f := func(tv float64) float64 {
		mid := (rc.toneLo + rc.toneHi) / 2
		return math.Cos(2*math.Pi*rc.toneLo*tv+0.3) +
			0.6*math.Cos(2*math.Pi*mid*tv+1.7) +
			0.4*math.Cos(2*math.Pi*rc.toneHi*tv+2.9)
	}
	rng := rand.New(rand.NewSource(23))
	capture := func(band pnbs.Band, t0 float64, n int) SampleSet {
		s := SampleSet{Band: band, T0: t0, Ch0: make([]float64, n), Ch1: make([]float64, n)}
		for i := range s.Ch0 {
			tv := t0 + float64(i)*band.T()
			s.Ch0[i] = f(tv) + rc.noise*(2*rng.Float64()-1)
			s.Ch1[i] = f(tv+rc.d) + rc.noise*(2*rng.Float64()-1)
		}
		return s
	}
	const n, h = 220, 30
	setB := capture(rc.bandB, 0, n)
	t1 := rc.bandB1.T()
	setB1 := capture(rc.bandB1, -h*t1, int(n*rc.bandB.T()/t1)+2*h+4)
	lo, hi, err := EvalWindow(setB, setB1, rc.opt)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewCostEvaluator(setB, setB1, RandomTimes(lo, hi, 150, 3), rc.opt)
	if err != nil {
		t.Fatal(err)
	}
	return ce
}

// TestReconstructMatchesAt: Reconstruct, the rate-B reconstruction read
// from the cost table, agrees with a reconstructor built at the same delay
// evaluated per instant through At — within the fused path's 1e-9 relative
// tolerance plus a 1e-9 absolute floor — on the paper band, a rectangular
// window (β < 0), the integer-positioned (225, 50) MHz band (s0 = 0) and a
// noisy capture. Its values are bit-identical at any worker count, a
// forbidden delay fails with NewReconstructor's error, and no call moves a
// skew.cost.* counter: Reconstruct is not a cost evaluation.
func TestReconstructMatchesAt(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	paperB, paperB1 := paperBands()
	paper := reconCase{
		bandB: paperB, bandB1: paperB1, d: 180e-12,
		dHats:  []float64{120e-12, 180e-12, 250e-12},
		toneLo: 0.992e9, toneHi: 1.007e9,
	}
	rect := paper
	rect.name, rect.opt = "rectangular", pnbs.Options{KaiserBeta: -1}
	noisy := paper
	noisy.name, noisy.noise = "noisy", 0.01
	paper.name = "paper"
	// 2 fl / B = 9: integer positioned. The rate-B1 band (235, 30) MHz
	// keeps Eq. (9): k+ B = 500 MHz, k1 B1 = 480 MHz, k1+ B1 = 510 MHz.
	intB := pnbs.Band{FLow: 225e6, B: 50e6}
	integer := reconCase{
		name: "integer-positioned", bandB: intB, bandB1: pnbs.Band{FLow: 235e6, B: 30e6},
		d: 1e-9, dHats: []float64{0.6e-9, 1e-9, 1.4e-9},
		toneLo: 244e6, toneHi: 256e6,
	}
	evals, errs := obs.C("skew.cost.evals"), obs.C("skew.cost.errors")
	for _, rc := range []reconCase{paper, rect, integer, noisy} {
		t.Run(rc.name, func(t *testing.T) {
			ce := reconEvaluator(t, rc)
			evals0, errs0 := evals.Value(), errs.Value()
			for _, dHat := range rc.dHats {
				prev := par.SetWorkers(1)
				got, err := ce.Reconstruct(dHat)
				par.SetWorkers(prev)
				if err != nil {
					t.Fatal(err)
				}
				r, err := pnbs.NewReconstructor(rc.bandB, dHat, ce.setB.T0, ce.setB.Ch0, ce.setB.Ch1, rc.opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, tv := range ce.Times() {
					want := r.At(tv)
					if math.Abs(got[i]-want) > 1e-9*math.Max(math.Abs(got[i]), math.Abs(want))+1e-9 {
						t.Fatalf("dHat=%g t=%g: Reconstruct %.17g vs At %.17g", dHat, tv, got[i], want)
					}
				}
				for _, w := range []int{2, 3, 8} {
					prev := par.SetWorkers(w)
					again, err := ce.Reconstruct(dHat)
					par.SetWorkers(prev)
					if err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if again[i] != got[i] {
							t.Fatalf("workers=%d dHat=%g i=%d: %.17g != single-worker %.17g",
								w, dHat, i, again[i], got[i])
						}
					}
				}
			}
			// T/(k+1) violates Eq. (3b) in every band.
			forbidden := rc.bandB.T() / float64(rc.bandB.KPlus())
			_, err := ce.Reconstruct(forbidden)
			_, want := pnbs.NewReconstructor(rc.bandB, forbidden, ce.setB.T0, ce.setB.Ch0, ce.setB.Ch1, rc.opt)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("forbidden delay: Reconstruct error %v, NewReconstructor error %v", err, want)
			}
			if evals.Value() != evals0 || errs.Value() != errs0 {
				t.Fatalf("Reconstruct moved skew.cost counters: evals %d -> %d, errors %d -> %d",
					evals0, evals.Value(), errs0, errs.Value())
			}
		})
	}
}
