// Package skew implements the paper's time-skew estimation layer: the
// dual-rate self-referential cost function of Eqs. (7)-(8) with the
// uniqueness conditions of Eq. (9), the normalized variable-step LMS
// identification of Algorithm 1, and the known-sinusoid baseline adapted
// from Jamal et al. (TCAS-I 2004, the paper's reference [14]).
package skew

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pnbs"
)

// Hot-loop instruments, hoisted to package level so an increment is one
// atomic add and the registry map is never touched per evaluation. The
// evals counter is the paper's "computational effort" axis measured live:
// after one BIST run it equals LMSResult.CostEvals exactly.
var (
	mCostEvals  = obs.C("skew.cost.evals")
	mCostErrors = obs.C("skew.cost.errors")
	// mMemoHits counts descent evaluations served from the LMS candidate
	// memo: logical evaluations that did no kernel work.
	mMemoHits = obs.C("skew.lms.memo.hits")
)

// SampleSet is one nonuniform capture expressed for reconstruction:
// Ch0[n] = f(T0 + n/Band.B), Ch1[n] = f(T0 + n/Band.B + D) with the same
// physical (unknown) D for every set.
type SampleSet struct {
	// Band is the bandpass support assumed for reconstruction at this rate.
	Band pnbs.Band
	// T0 is the nominal instant of Ch0's first sample.
	T0 float64
	// Ch0 and Ch1 are the captured channel values.
	Ch0, Ch1 []float64
}

// HalfRateBand returns the band to assume when reconstructing from the
// half-rate capture: same centre, half the width. The paper's configuration
// (fc = 1 GHz, B = 90 MHz -> B1 = 45 MHz) keeps the narrowband test signal
// inside both supports.
func HalfRateBand(b pnbs.Band) pnbs.Band {
	return pnbs.Band{FLow: b.Fc() - b.B/4, B: b.B / 2}
}

// MUpper returns m, the first delay at which the dual-rate cost function is
// undefined: m = min{ 1/(k+ B), 1/(k1+ B1) } (Section IV-A). The LMS search
// is restricted to ]0, m[.
func MUpper(bandB, bandB1 pnbs.Band) float64 {
	mB := 1 / (float64(bandB.KPlus()) * bandB.B)
	mB1 := 1 / (float64(bandB1.KPlus()) * bandB1.B)
	return math.Min(mB, mB1)
}

// CheckUniqueness verifies the paper's Eq. (9) conditions under which the
// cost function has a single minimum in ]0, m[ at D-hat = D:
// k+ B != k1 B1 and k+ B != k1+ B1.
func CheckUniqueness(bandB, bandB1 pnbs.Band) error {
	if bandB1.B >= bandB.B {
		return fmt.Errorf("skew: need T < T1, i.e. B1 = %g < B = %g", bandB1.B, bandB.B)
	}
	kpB := float64(bandB.KPlus()) * bandB.B
	k1B1 := float64(bandB1.K()) * bandB1.B
	k1pB1 := float64(bandB1.KPlus()) * bandB1.B
	const tol = 1e-6
	if math.Abs(kpB-k1B1) < tol*kpB {
		return fmt.Errorf("skew: Eq. (9a) violated: k+ B = k1 B1 = %g", kpB)
	}
	if math.Abs(kpB-k1pB1) < tol*kpB {
		return fmt.Errorf("skew: Eq. (9b) violated: k+ B = k1+ B1 = %g", kpB)
	}
	return nil
}

// CostEvaluator computes the Eq. (7) objective: the mean squared
// disagreement between the rate-B and rate-B1 reconstructions of the same
// waveform, both evaluated with the SAME candidate delay D-hat. At
// D-hat = D both reconstructions converge to f(t) and the cost collapses to
// the noise floor; anywhere else they err differently and the cost rises.
// No knowledge of the transmitted waveform is needed.
type CostEvaluator struct {
	setB  SampleSet
	setB1 SampleSet
	times []float64
	opt   pnbs.Options
	// tB/tB1 are the delay-independent fused-path tables of the two
	// captures over times, built once from template reconstructors at each
	// band's OptimalD. Every candidate delay evaluates against them with
	// its own pair of kernels, so concurrent callers share nothing mutable.
	tB, tB1 *pnbs.CostTable
}

// costChunk is the fixed instant-chunk size of the fused cost fold. It is a
// constant — never derived from the worker count — so the per-chunk partial
// sums and their chunk-order fold are bit-identical at any pool size.
const costChunk = 16

// NewCostEvaluator validates the two captures and the evaluation instants
// and builds the fused cost tables of both captures. The instants must lie
// inside the valid reconstruction range of both sets; use
// EvalWindow/RandomTimes to generate them.
func NewCostEvaluator(setB, setB1 SampleSet, times []float64, opt pnbs.Options) (*CostEvaluator, error) {
	if err := CheckUniqueness(setB.Band, setB1.Band); err != nil {
		return nil, err
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("skew: no evaluation instants")
	}
	if len(setB.Ch0) != len(setB.Ch1) || len(setB1.Ch0) != len(setB1.Ch1) {
		return nil, fmt.Errorf("skew: channel length mismatch")
	}
	rB, rB1, err := templatePair(setB, setB1, opt)
	if err != nil {
		return nil, err
	}
	return &CostEvaluator{setB: setB, setB1: setB1, times: times, opt: opt,
		tB: rB.CostTable(times), tB1: rB1.CostTable(times)}, nil
}

// templatePair builds the reconstructor pair of the two captures at each
// band's OptimalD.
func templatePair(setB, setB1 SampleSet, opt pnbs.Options) (rB, rB1 *pnbs.Reconstructor, err error) {
	rB, err = pnbs.NewReconstructor(setB.Band, setB.Band.OptimalD(), setB.T0, setB.Ch0, setB.Ch1, opt)
	if err != nil {
		return nil, nil, err
	}
	rB1, err = pnbs.NewReconstructor(setB1.Band, setB1.Band.OptimalD(), setB1.T0, setB1.Ch0, setB1.Ch1, opt)
	if err != nil {
		return nil, nil, err
	}
	return rB, rB1, nil
}

// Times returns the evaluation instants.
func (c *CostEvaluator) Times() []float64 { return c.times }

// M returns the upper limit of the searchable delay interval.
func (c *CostEvaluator) M() float64 { return MUpper(c.setB.Band, c.setB1.Band) }

// Cost evaluates the Eq. (7) objective at the candidate delay dHat through
// the fused reassociated kernel (pnbs.CostFused): the candidate enters as
// one kernel per rate against the evaluator's prepared tables, fixed-size
// instant chunks fan out over the par pool, and the per-chunk residual
// partials are folded serially in chunk order. The chunk boundaries never
// depend on the worker count, so the result is bit-identical at any pool
// size — and on any amd64 CPU, since the AVX2 encoding of the kernel
// reproduces its Go loops bit for bit. Against the per-instant serial
// oracle (costSerial) the fused value agrees to <= 1e-9 relative —
// reassociated, not bit-identical (the documented estimate-stage tolerance
// contract). Cost is safe for concurrent use.
func (c *CostEvaluator) Cost(dHat float64) (float64, error) {
	mCostEvals.Inc()
	kB, err := pnbs.NewKernel(c.setB.Band, dHat)
	if err != nil {
		mCostErrors.Inc()
		return 0, err
	}
	kB1, err := pnbs.NewKernel(c.setB1.Band, dHat)
	if err != nil {
		mCostErrors.Inc()
		return 0, err
	}
	n := len(c.times)
	partials := make([]float64, (n+costChunk-1)/costChunk)
	par.ForChunks(n, costChunk, func(lo, hi int) {
		partials[lo/costChunk] = pnbs.CostFused(c.tB, kB, c.tB1, kB1, lo, hi)
	})
	return foldChunks(partials, n), nil
}

// Reconstruct returns the rate-B reconstruction at dHat at every evaluation
// instant, read from the rate-B cost table (the paper's Δε compares it with
// the true waveform). It fails as pnbs.NewReconstructor does at dHat, and
// counts no cost evaluation.
func (c *CostEvaluator) Reconstruct(dHat float64) ([]float64, error) {
	k, err := pnbs.NewKernel(c.setB.Band, dHat)
	if err != nil {
		return nil, err
	}
	return c.tB.Values(k), nil
}

// foldChunks folds the per-chunk partials serially in chunk order — the one
// fixed association the worker-count-invariance contract pins.
func foldChunks(partials []float64, n int) float64 {
	acc := 0.0
	for _, p := range partials {
		acc += p
	}
	return acc / float64(n)
}

// costSerial is the single-threaded, rebuild-everything, per-instant At
// reference implementation of Cost (the seed code path), kept as the
// oracle for the differential tests: the fused reassociated path must agree
// with it to <= 1e-9 relative (the estimate-stage tolerance contract), and
// must itself be bit-identical at any worker count.
func (c *CostEvaluator) costSerial(dHat float64) (float64, error) {
	rB, err := pnbs.NewReconstructor(c.setB.Band, dHat, c.setB.T0, c.setB.Ch0, c.setB.Ch1, c.opt)
	if err != nil {
		return 0, err
	}
	rB1, err := pnbs.NewReconstructor(c.setB1.Band, dHat, c.setB1.T0, c.setB1.Ch0, c.setB1.Ch1, c.opt)
	if err != nil {
		return 0, err
	}
	acc := 0.0
	for _, tv := range c.times {
		d := rB.At(tv) - rB1.At(tv)
		acc += d * d
	}
	return acc / float64(len(c.times)), nil
}

// EvalWindow returns the time interval over which both captures support
// full-filter reconstruction (intersection of the two valid ranges).
func EvalWindow(setB, setB1 SampleSet, opt pnbs.Options) (lo, hi float64, err error) {
	rB, rB1, err := templatePair(setB, setB1, opt)
	if err != nil {
		return 0, 0, err
	}
	lo0, hi0 := rB.ValidRange()
	lo1, hi1 := rB1.ValidRange()
	lo = math.Max(lo0, lo1)
	hi = math.Min(hi0, hi1)
	if lo >= hi {
		return 0, 0, fmt.Errorf("skew: captures share no valid reconstruction window")
	}
	return lo, hi, nil
}

// RandomTimes draws n uniform random instants from [lo, hi] with a seeded
// generator (the paper uses N = 300 random values in [470 ns, 1700 ns]).
func RandomTimes(lo, hi float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*rng.Float64()
	}
	return out
}
