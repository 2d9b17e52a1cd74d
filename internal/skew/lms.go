package skew

import (
	"fmt"
	"math"

	"repro/internal/obs/trace"
	"repro/internal/par"
)

// Algorithm 1's step schedule, fixed at the paper's Section V setting.
const (
	// lmsMu0 is the initial step size (paper: 1 ps).
	lmsMu0 = 1e-12
	// lmsTolStep ends the descent once the adapted step shrinks below it
	// (delay resolution achieved).
	lmsTolStep = 1e-14
	// lmsMaxIter bounds the outer iterations.
	lmsMaxIter = 50
)

// LMSResult reports the estimation outcome.
type LMSResult struct {
	// DHat is the final delay estimate.
	DHat float64
	// Iterations is the number of outer iterations executed.
	Iterations int
	// Converged indicates termination by the step tolerance rather than
	// the iteration cap.
	Converged bool
	// CostHistory and DHistory trace the optimisation (Fig. 6 data).
	CostHistory []float64
	DHistory    []float64
	// CostEvals counts objective evaluations (the paper's noted drawback:
	// "relatively high computational effort").
	CostEvals int
}

// CostFunc evaluates the objective at a candidate delay. It must be a
// pure function of dHat: the descent memoizes repeated candidates, so a
// cost that varied between calls at the same delay would desynchronize
// from the recorded histories.
type CostFunc func(dHat float64) (float64, error)

// Trace span names for the LMS descent (interned once). The per-iteration
// spans and the D-hat/cost counter tracks are the Fig. 6 telemetry: a
// Perfetto capture of one estimation shows each outer iteration as a child
// span annotated with its evaluation count, and the convergence trajectory
// as two counter tracks streamed from the same append sites that feed
// DHistory/CostHistory.
var (
	tnLMS      = trace.Intern("skew.lms")
	tnLMSIter  = trace.Intern("skew.lms.iter")
	tnCostEval = trace.Intern("skew.cost.eval")
)

// EstimateLMS runs the paper's Algorithm 1: a normalized LMS descent on the
// dual-rate cost with a numerically estimated gradient
// grad_i = (eps_i - eps_{i-1}) / (D_i - D_{i-1}) and variable step size —
// halved (and the move retried) whenever the cost would increase, doubled
// after every accepted move. Normalisation reduces the scalar update to a
// signed step of magnitude mu, which makes mu directly interpretable in
// seconds. The search interval is ]m/1000, 0.999·m[, where m is the
// Section IV-A searchable-delay limit (CostEvaluator.M, MultiCost.M).
//
// The whole descent runs inside a "skew.lms" span under tc, each outer
// iteration in a "skew.lms.iter" child, and every objective evaluation in
// a "skew.cost.eval" child. The counter-track names embed the starting
// estimate ("skew.lms.dhat[d0=...ps]") so concurrent estimations — the
// Fig. 6 sweep runs its starts in parallel — land on separate,
// deterministically named tracks. With tracing disabled the extra cost is
// a handful of atomic loads across the whole descent.
func EstimateLMS(tc trace.Ctx, cost CostFunc, d0, m float64) (LMSResult, error) {
	if !(m > 0) || math.IsInf(m, 1) {
		return LMSResult{}, fmt.Errorf("skew: LMS search limit m %g must be finite and positive", m)
	}
	dMin, dMax := m/1000, m*0.999
	sp := trace.Start(tc, tnLMS)
	defer sp.End()
	var dhatTrack, costTrack string
	if sp.Active() {
		sp.SetFloat("d0", d0)
		sp.SetFloat("mu0", lmsMu0)
		label := fmt.Sprintf("[d0=%gps]", d0*1e12)
		dhatTrack = "skew.lms.dhat" + label
		costTrack = "skew.lms.cost" + label
	}
	clamp := func(d float64) float64 {
		if d < dMin {
			return dMin
		}
		if d > dMax {
			return dMax
		}
		return d
	}
	d0 = clamp(d0)
	res := LMSResult{}
	evals := 0
	// The descent revisits candidates: a clamped boundary step re-probes
	// the current point, and the direction-reversal retry walks back over
	// ground the failed direction covered — 20-30% of evaluations in the
	// paper scenario are repeats. The objective is a pure function of d
	// (the CostFunc contract), so repeated candidates are served from a
	// memo. Bookkeeping is untouched: CostEvals, the histories and the
	// per-evaluation trace spans count memo hits exactly like real
	// evaluations, which keeps every pinned artifact byte-identical.
	memo := map[float64]float64{}
	eval := func(d float64) (float64, error) {
		evals++
		es := trace.Start(sp.Ctx(), tnCostEval)
		v, ok := memo[d]
		var err error
		if ok {
			// The skew.cost.evals counter tracks logical objective
			// evaluations — the paper's evaluation-count drawback metric —
			// and is pinned equal to LMSResult.CostEvals, so a memo hit
			// records the evaluation it stands in for.
			mCostEvals.Inc()
			mMemoHits.Inc()
		} else {
			v, err = cost(d)
			if err == nil {
				memo[d] = v
			}
		}
		es.End()
		return v, err
	}
	// record appends one accepted point to the Fig. 6 history and, while
	// tracing, streams it onto the run's counter tracks (D-hat in ps).
	record := func(d, eps float64) {
		res.DHistory = append(res.DHistory, d)
		res.CostHistory = append(res.CostHistory, eps)
		if sp.Active() {
			trace.Counter(sp.Ctx(), dhatTrack, d*1e12)
			trace.Counter(sp.Ctx(), costTrack, eps)
		}
	}
	epsPrev, err := eval(d0)
	if err != nil {
		return res, fmt.Errorf("skew: LMS initial cost: %w", err)
	}
	// Bootstrap the finite difference with a one-step probe.
	mu := lmsMu0
	d := clamp(d0 + mu)
	if d == d0 {
		d = clamp(d0 - mu)
	}
	eps, err := eval(d)
	if err != nil {
		return res, fmt.Errorf("skew: LMS probe cost: %w", err)
	}
	record(d0, epsPrev)
	record(d, eps)
	dPrev := d0
	for iter := 0; iter < lmsMaxIter; iter++ {
		res.Iterations = iter + 1
		it := trace.Start(sp.Ctx(), tnLMSIter)
		it.SetInt("iter", int64(iter))
		evalsEntry := evals
		endIter := func() {
			it.SetInt("evals", int64(evals-evalsEntry))
			it.End()
		}
		grad := 0.0
		if d != dPrev {
			grad = (eps - epsPrev) / (d - dPrev)
		}
		dir := -1.0
		if grad <= 0 {
			dir = 1.0 // descend along -grad; flat: probe forward
		}
		// Step 3-5: shrink mu until the move decreases the cost. The secant
		// gradient can point the wrong way right after a step across the
		// minimum, so when one direction fails entirely the search retries
		// the opposite direction before declaring convergence.
		accepted := false
		muEntry := mu
		for attempt := 0; attempt < 2 && !accepted; attempt++ {
			mu = muEntry
			for mu >= lmsTolStep {
				dNext := clamp(d + dir*mu)
				epsNext, err := eval(dNext)
				if err != nil {
					endIter()
					return res, fmt.Errorf("skew: LMS cost at %g: %w", dNext, err)
				}
				if epsNext < eps {
					dPrev, epsPrev = d, eps
					d, eps = dNext, epsNext
					record(d, eps)
					accepted = true
					break
				}
				mu /= 2
			}
			dir = -dir
		}
		endIter()
		if !accepted {
			res.Converged = true
			break
		}
		mu *= 2 // Step 6
	}
	res.DHat = d
	res.CostEvals = evals
	if sp.Active() {
		sp.SetFloat("dhat", d)
		sp.SetInt("cost_evals", int64(evals))
	}
	return res, nil
}

var tnCostCurve = trace.Intern("skew.costcurve")

// CostCurve samples the cost function over nPts delays spanning [dLo, dHi]
// (Fig. 5 data) inside a "skew.costcurve" span under tc. The sweep points
// are independent and fan out through par.ForCtx, so a capture shows the
// per-point evaluations on worker rows. Errors at individual points (e.g. kernel instability) are recorded
// as NaN. nPts <= 0 returns empty slices; nPts == 1 samples the interval
// midpoint (the float64(nPts-1) grid denominator would otherwise divide by
// zero and return a NaN delay).
func CostCurve(tc trace.Ctx, ce *CostEvaluator, dLo, dHi float64, nPts int) (ds, costs []float64) {
	sp := trace.Start(tc, tnCostCurve)
	sp.SetInt("points", int64(nPts))
	defer sp.End()
	if nPts < 2 {
		if nPts < 1 {
			return []float64{}, []float64{}
		}
		mid := dLo + (dHi-dLo)/2
		v, err := ce.Cost(mid)
		if err != nil {
			v = math.NaN()
		}
		return []float64{mid}, []float64{v}
	}
	ds = make([]float64, nPts)
	costs = make([]float64, nPts)
	par.ForCtx(sp.Ctx(), nPts, func(i int) {
		d := dLo + (dHi-dLo)*float64(i)/float64(nPts-1)
		ds[i] = d
		v, err := ce.Cost(d)
		if err != nil {
			costs[i] = math.NaN()
			return
		}
		costs[i] = v
	})
	return ds, costs
}
