package skew

import (
	"math"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/pnbs"
)

func TestGoldenSectionOnQuadratic(t *testing.T) {
	cost := func(d float64) (float64, error) { return (d - 3.7) * (d - 3.7), nil }
	res, err := GoldenSection(cost, 0, 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DHat-3.7) > 1e-8 {
		t.Errorf("minimum at %g", res.DHat)
	}
	if res.CostEvals <= 0 || res.Cost > 1e-15 {
		t.Errorf("bookkeeping: %d evals, cost %g", res.CostEvals, res.Cost)
	}
	if _, err := GoldenSection(cost, 5, 5, 1e-9); err == nil {
		t.Error("empty bracket must fail")
	}
}

func TestGoldenSectionMatchesLMSOnPaperCost(t *testing.T) {
	d := 180e-12
	ce := paperEvaluator(t, d)
	m := ce.M()
	gold, err := GoldenSection(ce.Cost, m/1000, m*0.999, 0.05e-12)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := EstimateLMS(trace.Root, ce.Cost, 100e-12, ce.M())
	if err != nil {
		t.Fatal(err)
	}
	// Both must land on the same minimum (within the search tolerances).
	if math.Abs(gold.DHat-lms.DHat) > 1e-12 {
		t.Errorf("golden %g vs LMS %g", gold.DHat, lms.DHat)
	}
	if math.Abs(gold.DHat-d) > 1e-12 {
		t.Errorf("golden section missed the delay: %g", gold.DHat)
	}
	// Ablation claim: for a single run from a reasonable start, both need
	// tens of cost evaluations; neither should be pathological.
	if gold.CostEvals > 120 || lms.CostEvals > 200 {
		t.Errorf("excessive evals: golden %d, LMS %d", gold.CostEvals, lms.CostEvals)
	}
}

// Regression for the (DHat, Cost) mismatch: DHat used to be the bracket
// midpoint while Cost was the best interior probe's value — a pair no
// single point satisfied. DHat must now be an actually evaluated point
// whose recorded cost matches a re-evaluation exactly.
func TestGoldenSectionResultSelfConsistent(t *testing.T) {
	evaluated := make(map[float64]float64)
	cost := func(d float64) (float64, error) {
		v := (d-3.7)*(d-3.7) + 0.25
		evaluated[d] = v
		return v, nil
	}
	res, err := GoldenSection(cost, 0, 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := evaluated[res.DHat]
	if !ok {
		t.Fatalf("DHat %g was never evaluated", res.DHat)
	}
	if v != res.Cost {
		t.Errorf("Cost %g != cost(DHat) %g", res.Cost, v)
	}
	// The best probe sits inside the final bracket, so it stays within the
	// requested tolerance of the true minimum.
	if math.Abs(res.DHat-3.7) > 1e-6 {
		t.Errorf("DHat %g outside tolerance of the minimum", res.DHat)
	}
}

// Regression for the nPts == 1 divide-by-zero: the grid denominator
// float64(nPts-1) used to produce a NaN delay (and thus a NaN cost) for a
// single-point sweep.
func TestCostCurveSinglePoint(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	m := ce.M()
	ds, costs := CostCurve(trace.Root, ce, m/1000, m*0.999, 1)
	if len(ds) != 1 || len(costs) != 1 {
		t.Fatalf("lengths %d, %d", len(ds), len(costs))
	}
	mid := m/1000 + (m*0.999-m/1000)/2
	if math.IsNaN(ds[0]) || ds[0] != mid {
		t.Errorf("single point delay %g, want midpoint %g", ds[0], mid)
	}
	if math.IsNaN(costs[0]) || costs[0] < 0 {
		t.Errorf("single point cost %g", costs[0])
	}
	// Degenerate request: no points, no panic, no NaNs.
	ds, costs = CostCurve(trace.Root, ce, m/1000, m*0.999, 0)
	if len(ds) != 0 || len(costs) != 0 {
		t.Errorf("nPts=0 returned %d/%d points", len(ds), len(costs))
	}
}

func TestMultiCostValidationAndAveraging(t *testing.T) {
	d := 180e-12
	ce1 := paperEvaluator(t, d)
	ce2 := paperEvaluator(t, d)
	if _, err := NewMultiCost(nil); err == nil {
		t.Error("empty evaluator list must fail")
	}
	mc, err := NewMultiCost([]*CostEvaluator{ce1, ce2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.evals) != 2 || mc.M() != ce1.M() {
		t.Error("accessors")
	}
	// The average of two identical costs equals the single cost.
	v1, _ := ce1.Cost(150e-12)
	vm, err := mc.Cost(150e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vm-v1) > 1e-15 {
		t.Errorf("averaged cost %g vs %g", vm, v1)
	}
	res, err := EstimateLMS(trace.Root, mc.Cost, 100e-12, mc.M())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DHat-d) > 0.5e-12 {
		t.Errorf("multi estimate %.3f ps off", (res.DHat-d)*1e12)
	}
	// Mismatched geometry rejected.
	other := idealSet(pnbs.Band{FLow: 805e6, B: 72e6}, 0, d, 220)
	otherB1 := idealSet(HalfRateBand(pnbs.Band{FLow: 805e6, B: 72e6}), -300e-9, d, 130)
	ce3, err := NewCostEvaluator(other, otherB1, ce1.Times(), pnbs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiCost([]*CostEvaluator{ce1, ce3}); err == nil {
		t.Error("mismatched geometry must fail")
	}
}
