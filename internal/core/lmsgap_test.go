package core

import (
	"math"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/skew"
)

// costProbe is one objective evaluation that reached the cost function:
// the candidate delay and its cost.
type costProbe struct{ d, cost float64 }

// estimateRecorded runs b's estimate stage on the given captures as the
// BIST pipeline does, with the evaluator's cost wrapped to record every
// evaluation that reaches it (the descent serves repeated delays from its
// memo, so those do not).
func estimateRecorded(t *testing.T, b *BIST, setB, setB1 skew.SampleSet) (skew.LMSResult, []costProbe) {
	t.Helper()
	ce, err := b.costEvaluator(setB, setB1)
	if err != nil {
		t.Fatal(err)
	}
	var probes []costProbe
	res, err := skew.EstimateLMS(trace.Root, func(d float64) (float64, error) {
		c, err := ce.Cost(d)
		probes = append(probes, costProbe{d, c})
		return c, err
	}, b.cfg.NominalD, ce.M())
	if err != nil {
		t.Fatal(err)
	}
	return res, probes
}

// minDecisionGap bounds from below the relative gap |c - cur| / max(|c|,
// |cur|) of every accept/halve comparison Algorithm 1 made. While the
// descent sits at history point h it compares candidate costs against
// cur = CostHistory[h]; the candidates are the evaluations made before it
// moves on, and memo hits repeat earlier delays, so the bound takes every
// cost evaluated by then. It skips candidates at the current delay (a
// clamped step re-probes it, and equal costs compare equal whatever the
// kernel). A memo hit can be accepted only as the first move back to d0:
// every other earlier cost already lost to a cost at least the current one.
func minDecisionGap(t *testing.T, res skew.LMSResult, probes []costProbe) float64 {
	t.Helper()
	gap := math.Inf(1)
	h, seen := 1, 2 // history points 0 and 1 are d0 and the probe, never compared
	leave := func() {
		cur, dCur := res.CostHistory[h], res.DHistory[h]
		for _, p := range probes[:seen] {
			if p.d != dCur {
				gap = math.Min(gap, math.Abs(p.cost-cur)/math.Max(math.Abs(p.cost), math.Abs(cur)))
			}
		}
		h++
	}
	moved := func() bool {
		if h+1 >= len(res.DHistory) {
			return false
		}
		for _, p := range probes[:seen] {
			if p.d == res.DHistory[h+1] && p.cost == res.CostHistory[h+1] {
				return true
			}
		}
		return false
	}
	for ; seen <= len(probes); seen++ {
		for moved() {
			leave()
		}
	}
	seen = len(probes)
	leave()
	if h != len(res.DHistory) {
		t.Fatalf("walked %d of %d history points", h, len(res.DHistory))
	}
	return gap
}

// TestEstimateAmplitudeScaleInvariant: scaling both captures by a power of
// two scales every sample exactly, and the cost is quadratic in them, so
// D-hat, the evaluation count and the delay history stay bit-identical and
// every cost is exactly g² times the original. A threshold on an absolute
// amplitude anywhere in the estimate path would break it.
func TestEstimateAmplitudeScaleInvariant(t *testing.T) {
	scale := func(s skew.SampleSet, g float64) skew.SampleSet {
		out := s
		out.Ch0, out.Ch1 = make([]float64, len(s.Ch0)), make([]float64, len(s.Ch1))
		for i, v := range s.Ch0 {
			out.Ch0[i] = g * v
		}
		for i, v := range s.Ch1 {
			out.Ch1[i] = g * v
		}
		return out
	}
	for seed := int64(0); seed < 3; seed++ {
		cfg := PaperScenario()
		cfg.Seed += seed
		cfg.TI.Seed += seed
		cfg.TI.Ch0.Seed += seed
		cfg.TI.Ch1.Seed += seed
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		setB, setB1, _, err := b.acquire()
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := estimateRecorded(t, b, setB, setB1)
		for _, g := range []float64{2, 0.25, 1024, 0x1p-20} {
			res, _ := estimateRecorded(t, b, scale(setB, g), scale(setB1, g))
			if res.DHat != ref.DHat || res.CostEvals != ref.CostEvals || len(res.DHistory) != len(ref.DHistory) {
				t.Fatalf("seed %d gain %g: DHat %g, %d evals, %d moves; unscaled %g, %d, %d", seed, g,
					res.DHat, res.CostEvals, len(res.DHistory), ref.DHat, ref.CostEvals, len(ref.DHistory))
			}
			for i := range ref.DHistory {
				if res.DHistory[i] != ref.DHistory[i] || res.CostHistory[i] != g*g*ref.CostHistory[i] {
					t.Fatalf("seed %d gain %g point %d: (%g, %g), want (%g, %g)", seed, g, i,
						res.DHistory[i], res.CostHistory[i], ref.DHistory[i], g*g*ref.CostHistory[i])
				}
			}
		}
	}
}
