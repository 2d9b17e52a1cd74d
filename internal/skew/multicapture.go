package skew

import (
	"fmt"

	"repro/internal/par"
)

// MultiCost aggregates the dual-rate cost over several independent
// acquisitions of the same transmitter: J(D) = mean_k J_k(D). The physical
// delay D is common to all captures while the clock jitter is not, so the
// empirical minimum's jitter-induced wander shrinks as 1/sqrt(K) — the
// route from this simulator's ~0.8 ps single-capture accuracy toward the
// paper's <0.1 ps regime without any hardware change (captures are cheap:
// the ADCs are idle anyway during Tx test).
type MultiCost struct {
	evals []*CostEvaluator
}

// NewMultiCost validates and bundles the per-capture evaluators.
func NewMultiCost(evals []*CostEvaluator) (*MultiCost, error) {
	if len(evals) == 0 {
		return nil, fmt.Errorf("skew: multi-capture cost needs at least one evaluator")
	}
	m := evals[0].M()
	for i, e := range evals[1:] {
		if e.M() != m {
			return nil, fmt.Errorf("skew: evaluator %d has different band geometry (m %g vs %g)",
				i+1, e.M(), m)
		}
	}
	return &MultiCost{evals: evals}, nil
}

// M returns the searchable-delay upper limit shared by all captures.
func (mc *MultiCost) M() float64 { return mc.evals[0].M() }

// Cost evaluates the averaged objective. The K captures are independent,
// so they fan out over the par pool; the per-capture costs are averaged in
// capture order, keeping the result independent of the pool size.
func (mc *MultiCost) Cost(dHat float64) (float64, error) {
	vals, err := par.MapErr(len(mc.evals), func(i int) (float64, error) {
		return mc.evals[i].Cost(dHat)
	})
	if err != nil {
		return 0, err
	}
	acc := 0.0
	for _, v := range vals {
		acc += v
	}
	return acc / float64(len(mc.evals)), nil
}
