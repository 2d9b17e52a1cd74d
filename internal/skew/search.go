package skew

import (
	"fmt"
)

// This file provides alternative minimisers for the dual-rate cost. The
// paper's Section IV-A theorem guarantees the cost has a single minimum in
// ]0, m[ under the Eq. (9) conditions, which makes bracketing methods
// applicable; they serve as ablation baselines quantifying Algorithm 1's
// "relatively high computational effort" remark.

// GoldenResult reports a golden-section search outcome.
type GoldenResult struct {
	// DHat is the best delay the search evaluated.
	DHat      float64
	CostEvals int
	// Cost is the objective value at DHat (the same evaluation, not a
	// re-computation).
	Cost float64
}

// GoldenSection minimises the cost over [lo, hi] to the absolute delay
// tolerance tol using golden-section search. Unlike Algorithm 1 it needs
// no starting estimate or step-size parameter, but it relies on strict
// unimodality over the bracket.
//
// DHat is the best probe point actually evaluated — not the bracket
// midpoint — so the returned (DHat, Cost) pair is self-consistent:
// Cost == cost(DHat) exactly. (A previous version returned the midpoint
// alongside the interior probe's value, a pair no single point satisfied.)
// The best probe lies inside the final bracket, hence within tol of the
// midpoint.
func GoldenSection(cost CostFunc, lo, hi, tol float64) (GoldenResult, error) {
	if hi <= lo {
		return GoldenResult{}, fmt.Errorf("skew: golden section bracket [%g, %g] invalid", lo, hi)
	}
	if tol <= 0 {
		tol = 1e-14
	}
	const phi = 0.6180339887498949 // (sqrt(5)-1)/2
	evals := 0
	eval := func(d float64) (float64, error) {
		evals++
		return cost(d)
	}
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, err := eval(x1)
	if err != nil {
		return GoldenResult{}, err
	}
	f2, err := eval(x2)
	if err != nil {
		return GoldenResult{}, err
	}
	for b-a > tol {
		if f1 <= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			if f1, err = eval(x1); err != nil {
				return GoldenResult{}, err
			}
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			if f2, err = eval(x2); err != nil {
				return GoldenResult{}, err
			}
		}
	}
	d, fd := x1, f1
	if f2 < f1 {
		d, fd = x2, f2
	}
	return GoldenResult{DHat: d, CostEvals: evals, Cost: fd}, nil
}
