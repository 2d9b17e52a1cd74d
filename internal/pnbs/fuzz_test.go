package pnbs

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzReconstructClone differentially tests Clone against fresh
// construction on fuzzed delay pairs: both must agree on which delays are
// feasible (Eq. 3), and on every feasible pair the clone must evaluate
// bit-identically to a reconstructor built from scratch at the target
// delay — the contract the LMS hot loop depends on.
func FuzzReconstructClone(f *testing.F) {
	f.Add(0.36, 0.42, int64(1))  // two nearby valid delays
	f.Add(0.36, -0.36, int64(2)) // sign flip
	f.Add(0.5, 0.0, int64(3))    // clone at zero: must be rejected
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

		r, err := NewReconstructor(band, d1, 0, ch0, ch1, opt)
		if err != nil {
			// d1 infeasible: nothing to clone from.
			t.Skip()
		}
		fresh, freshErr := NewReconstructor(band, d2, 0, ch0, ch1, opt)
		c, cloneErr := r.Clone(d2)
		if (freshErr == nil) != (cloneErr == nil) {
			t.Fatalf("feasibility disagreement at d2=%g: fresh err %v, clone err %v",
				d2, freshErr, cloneErr)
		}
		if cloneErr != nil {
			// A failed clone must leave the template at d1.
			if got := r.Kernel().D(); got != d1 {
				t.Fatalf("failed clone moved D: %g, want %g", got, d1)
			}
			return
		}
		lo, hi := fresh.ValidRange()
		for i := 0; i < 25; i++ {
			tv := lo + (hi-lo)*float64(i)/24
			if a, b := c.At(tv), fresh.At(tv); a != b {
				t.Fatalf("d1=%g d2=%g t=%g: cloned %g != fresh %g", d1, d2, tv, a, b)
			}
		}
	})
}
