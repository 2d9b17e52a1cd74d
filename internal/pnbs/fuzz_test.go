package pnbs

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCostTableDelayIndependence differentially tests the fused cost
// table on fuzzed delay pairs: NewKernel and NewReconstructor must agree
// on which delays are feasible (Eq. 3), and on every feasible pair a table
// built from a template at d1 and evaluated with a kernel at d2 must equal,
// bit for bit, the table of a reconstructor built from scratch at d2 — the
// contract that lets the LMS hot loop build its tables once per capture.
func FuzzCostTableDelayIndependence(f *testing.F) {
	f.Add(0.36, 0.42, int64(1))  // two nearby valid delays
	f.Add(0.36, -0.36, int64(2)) // sign flip
	f.Add(0.36, 0.0, int64(3))   // candidate at zero: must be rejected
	f.Add(0.9, 0.25, int64(4))   // large step, LMS-style
	f.Add(-0.7, 0.33, int64(5))  // negative origin
	f.Add(0.123, 0.1234, int64(6))
	f.Fuzz(func(t *testing.T, d1Frac, d2Frac float64, seed int64) {
		if math.IsNaN(d1Frac) || math.IsInf(d1Frac, 0) || math.IsNaN(d2Frac) || math.IsInf(d2Frac, 0) {
			t.Skip()
		}
		band := Band{FLow: 955e6, B: 90e6}
		// Fold the fuzzed fractions into (-2, 2) half-periods: well past the
		// first forbidden-delay families on both sides.
		maxD := 2 / band.B
		d1 := math.Remainder(d1Frac, 2) * maxD / 2
		d2 := math.Remainder(d2Frac, 2) * maxD / 2

		rng := rand.New(rand.NewSource(seed))
		n := 72
		ch0 := make([]float64, n)
		ch1 := make([]float64, n)
		for i := range ch0 {
			ch0[i] = 2*rng.Float64() - 1
			ch1[i] = 2*rng.Float64() - 1
		}
		opt := Options{HalfTaps: 6}

		tmpl, err := NewReconstructor(band, d1, 0, ch0, ch1, opt)
		if err != nil {
			// d1 infeasible: no template to build a table from.
			t.Skip()
		}
		fresh, freshErr := NewReconstructor(band, d2, 0, ch0, ch1, opt)
		k2, kernErr := NewKernel(band, d2)
		if (freshErr == nil) != (kernErr == nil) {
			t.Fatalf("feasibility disagreement at d2=%g: reconstructor err %v, kernel err %v",
				d2, freshErr, kernErr)
		}
		if kernErr != nil {
			return
		}
		lo, hi := fresh.ValidRange()
		ts := make([]float64, 25)
		for i := range ts {
			ts[i] = lo + (hi-lo)*float64(i)/24
		}
		got := tmpl.CostTable(ts).Values(k2)
		want := fresh.CostTable(ts).Values(fresh.Kernel())
		for i, tv := range ts {
			if got[i] != want[i] {
				t.Fatalf("d1=%g d2=%g t=%g: template table %g != fresh table %g", d1, d2, tv, got[i], want[i])
			}
		}
	})
}
