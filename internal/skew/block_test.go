package skew

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pnbs"
)

// TestCostFusedBitIdenticalAcrossWorkers pins the worker-count-invariance
// half of the fused path's contract: Cost chunks the instants into
// FIXED-size blocks (never derived from the pool width) and folds the
// per-chunk partials serially in chunk order, so the value at workers 2 and
// 8 must equal the single-worker value bit for bit.
func TestCostFusedBitIdenticalAcrossWorkers(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	dHats := []float64{50e-12, 120e-12, 180e-12, 240e-12, 400e-12}
	for _, dHat := range dHats {
		prev := par.SetWorkers(1)
		ref, err := ce.Cost(dHat)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 8} {
			prev := par.SetWorkers(w)
			got, err := ce.Cost(dHat)
			par.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("workers=%d dHat=%g: fused Cost %.17g != single-worker %.17g",
					w, dHat, got, ref)
			}
		}
	}
}

// TestCostFusedMatchesSerialOracle is the tolerance half of the contract:
// the fused value must agree with the rebuild-everything per-instant serial
// oracle under the cost contract, 1e-9 relative plus 1e-15 of
// mean(rB² + rB1²) (withinCostTier).
func TestCostFusedMatchesSerialOracle(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	for _, dHat := range []float64{50e-12, 120e-12, 180e-12, 240e-12, 400e-12} {
		got, err := ce.Cost(dHat)
		if err != nil {
			t.Fatal(err)
		}
		ref, scale := serialRef(t, ce, dHat)
		if !withinCostTier(got, ref, scale) {
			t.Fatalf("dHat=%g: fused %.17g vs serial oracle %.17g (rel %g, scale %g)", dHat, got, ref, relDiff(got, ref), scale)
		}
	}
}

// TestCostFusedPrepSurvivesRetune drives one evaluator through many
// candidate delays: every evaluation reuses the contracted tables built
// once by NewCostEvaluator (the tables are delay independent), with only
// the per-candidate kernel pair new. Bit-equality with a FRESH evaluator's
// first evaluation at the same delay proves the reuse is exact — the
// reused tables are the very floats a from-scratch build produces — and
// the serial oracle bounds the absolute accuracy at each stop.
func TestCostFusedPrepSurvivesRetune(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	for _, dHat := range []float64{100e-12, 180e-12, 260e-12, 180e-12, 100e-12} {
		got, err := ce.Cost(dHat) // same evaluator: reused tables, fresh kernels
		if err != nil {
			t.Fatal(err)
		}
		fresh := paperEvaluator(t, 180e-12)
		want, err := fresh.Cost(dHat) // fresh evaluator: tables built from scratch
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dHat=%g: reused tables %.17g != fresh build %.17g", dHat, got, want)
		}
		ref, scale := serialRef(t, ce, dHat)
		if !withinCostTier(got, ref, scale) {
			t.Fatalf("dHat=%g: reused tables %.17g vs serial oracle %.17g (rel %g, scale %g)", dHat, got, ref, relDiff(got, ref), scale)
		}
	}
}

// TestNewCostEvaluatorRejectsShortCapture: the template reconstructor pair
// and its tables are built at construction, so a capture too short for the filter support
// is refused there, not on the first Cost.
func TestNewCostEvaluatorRejectsShortCapture(t *testing.T) {
	bandB, bandB1 := paperBands()
	opt := pnbs.Options{HalfTaps: 30}
	times := []float64{1e-6}
	for _, tc := range []struct {
		name    string
		nB, nB1 int
	}{
		{"rate-B capture", opt.HalfTaps, 130},
		{"rate-B1 capture", 220, opt.HalfTaps},
	} {
		setB := idealSet(bandB, 0, 180e-12, tc.nB)
		setB1 := idealSet(bandB1, -300e-9, 180e-12, tc.nB1)
		if _, err := NewCostEvaluator(setB, setB1, times, opt); err == nil {
			t.Errorf("%s of %d samples (< HalfTaps+1) accepted", tc.name, opt.HalfTaps)
		}
	}
}

// TestCostForbiddenDelayCountsErrorAndLeavesNoState: a candidate delay
// violating Eq. (3) fails and increments skew.cost.errors; the next valid
// candidate then evaluates to the very bits a fresh evaluator produces.
func TestCostForbiddenDelayCountsErrorAndLeavesNoState(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	bandB, _ := paperBands()
	ce := paperEvaluator(t, 180e-12)
	errs := obs.C("skew.cost.errors")
	before := errs.Value()
	if _, err := ce.Cost(bandB.T() / float64(bandB.K())); err == nil {
		t.Fatal("forbidden delay accepted")
	}
	if got := errs.Value() - before; got != 1 {
		t.Fatalf("skew.cost.errors moved by %d, want 1", got)
	}
	got, err := ce.Cost(200e-12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := paperEvaluator(t, 180e-12).Cost(200e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cost after a rejected candidate %.17g != fresh evaluator %.17g", got, want)
	}
}
