package skew

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/par"
	"repro/internal/pnbs"
)

// This file holds costExact, the exact-arithmetic oracle of the Eq. (7)
// cost, and the estimate-stage cost contract stated against it.

// exactPrec is the working precision, in bits, of the exact cost oracle.
const exactPrec = 192

// exactPi is π to 100 decimal places, for the oracle's argument reduction.
var exactPi, _, _ = big.ParseFloat("3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679", 10, exactPrec, big.ToNearestEven)

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(x) }

func bigMul(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Mul(a, b) }

func bigAdd(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Add(a, b) }

func bigSub(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Sub(a, b) }

func bigQuo(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Quo(a, b) }

// bigCos returns cos(x) to about exactPrec bits: x is reduced into [−π, π]
// by a multiple of 2π taken from exactPi, then the Taylor series
// Σ (−1)^j r^{2j}/(2j)! is summed until a term falls below the sum's last
// bit.
func bigCos(x *big.Float) *big.Float {
	twoPi := bigMul(exactPi, bigF(2))
	q, _ := new(big.Float).Quo(x, twoPi).Float64()
	r := bigSub(x, bigMul(twoPi, bigF(math.Round(q))))
	r2 := bigMul(r, r)
	sum, term := bigF(1), bigF(1)
	for j := 1; ; j++ {
		term = bigMul(term, r2)
		term.Quo(term, bigF(float64((2*j-1)*(2*j))))
		term.Neg(term)
		if term.Sign() == 0 || term.MantExp(nil) < sum.MantExp(nil)-exactPrec-8 {
			return sum
		}
		sum.Add(sum, term)
	}
}

// bigSin returns sin(x) as cos(x − π/2).
func bigSin(x *big.Float) *big.Float {
	return bigCos(bigSub(x, bigQuo(exactPi, bigF(2))))
}

// bigI0 returns the modified Bessel function I0 at the square root of
// z2 >= 0, from its series Σ (z2/4)^k / (k!)².
func bigI0(z2 *big.Float) *big.Float {
	y := bigQuo(z2, bigF(4))
	sum, term := bigF(1), bigF(1)
	for k := 1; ; k++ {
		term = bigMul(term, y)
		term.Quo(term, bigF(float64(k*k)))
		if term.Sign() == 0 || term.MantExp(nil) < sum.MantExp(nil)-exactPrec-8 {
			return sum
		}
		sum.Add(sum, term)
	}
}

// exactRecon is the Eq. (6) reconstruction of one capture at one delay in
// exactPrec arithmetic. Every model constant is formed exactly from the
// band and the delay (the rates 2π(kB − fl), 2πfl, 2π(fl + B), the phases
// kπBD and (k+1)πBD and their sines), the tap offsets exactly from the
// float64 instants, and the taper is the exact Kaiser window
// I0(β√(1 − x²))/I0(β). The only float64 decision is the tap span: the
// nearest 2h+1 samples by the centre rule every evaluator of Eq. (6)
// shares. So the oracle counts every float64 rounding of a production
// path and the error of its taper table.
type exactRecon struct {
	set    SampleSet
	h      int
	beta   float64 // Kaiser β; negative for the rectangular window
	lw     *big.Float
	i0Beta *big.Float
	// a, b, phi and den (2πB sin φ) per kernel term; term 0 is absent on
	// an integer-positioned band.
	a, b, phi, den [2]*big.Float
	terms          int
}

func newExactRecon(set SampleSet, d float64, opt pnbs.Options) *exactRecon {
	h, beta := opt.HalfTaps, opt.KaiserBeta
	if h <= 0 {
		h = 30
	}
	if beta == 0 {
		beta = 8
	}
	band := set.Band
	e := &exactRecon{set: set, h: h, beta: beta}
	e.lw = bigMul(bigF(float64(h+1)), bigF(band.T()))
	e.i0Beta = bigI0(bigMul(bigF(beta), bigF(beta)))
	twoPi := bigMul(exactPi, bigF(2))
	fl, bw := bigF(band.FLow), bigF(band.B)
	k := bigF(float64(band.K()))
	kB := bigMul(k, bw)
	piBD := bigMul(bigMul(exactPi, bw), bigF(d))
	add := func(a, b, phi *big.Float) {
		e.a[e.terms], e.b[e.terms], e.phi[e.terms] = a, b, phi
		e.den[e.terms] = bigMul(bigMul(twoPi, bw), bigSin(phi))
		e.terms++
	}
	if !band.IntegerPositioned() {
		add(bigMul(twoPi, bigSub(kB, fl)), bigMul(twoPi, fl), bigMul(k, piBD))
	}
	add(bigMul(twoPi, bigAdd(fl, bw)), bigMul(twoPi, bigSub(kB, fl)), bigMul(bigF(float64(band.KPlus())), piBD))
	return e
}

// tap returns w(dt)·s(dt), the taper times the Eq. (2) kernel at the exact
// offset dt, with s's limit (a − b)/(2πB) per term at dt = 0.
func (e *exactRecon) tap(dt *big.Float) *big.Float {
	x := bigQuo(dt, e.lw)
	x2 := bigMul(x, x)
	if x2.Cmp(bigF(1)) >= 0 {
		return bigF(0)
	}
	w := bigF(1)
	if e.beta > 0 {
		w = bigQuo(bigI0(bigMul(bigMul(bigF(e.beta), bigF(e.beta)), bigSub(bigF(1), x2))), e.i0Beta)
	}
	s := bigF(0)
	for q := range e.terms {
		if dt.Sign() == 0 {
			twoPiB := bigMul(bigMul(exactPi, bigF(2)), bigF(e.set.Band.B))
			s = bigAdd(s, bigQuo(bigSub(e.a[q], e.b[q]), twoPiB))
			continue
		}
		num := bigSub(bigCos(bigSub(bigMul(e.a[q], dt), e.phi[q])), bigCos(bigSub(bigMul(e.b[q], dt), e.phi[q])))
		s = bigAdd(s, bigQuo(num, bigMul(e.den[q], dt)))
	}
	return bigMul(w, s)
}

// at evaluates Eq. (6) at t over the tap span of the centre rule, with the
// sample instants t0 + nT formed exactly from the float64 t0 and T = 1/B.
func (e *exactRecon) at(t float64, d float64) *big.Float {
	set := e.set
	tStep := set.Band.T()
	n0 := int(math.Floor((t-set.T0)/tStep + 0.5 + 1e-9))
	nLo, nHi := max(n0-e.h, 0), min(n0+e.h, len(set.Ch0)-1)
	acc := bigF(0)
	for n := nLo; n <= nHi; n++ {
		tn := bigAdd(bigF(set.T0), bigMul(bigF(float64(n)), bigF(tStep)))
		acc.Add(acc, bigMul(bigF(set.Ch0[n]), e.tap(bigSub(bigF(t), tn))))
		acc.Add(acc, bigMul(bigF(set.Ch1[n]), e.tap(bigSub(bigAdd(tn, bigF(d)), bigF(t)))))
	}
	return acc
}

// costExact evaluates the Eq. (7) objective at dHat in exactPrec arithmetic
// (exactRecon per capture, the squared differences and their mean exact
// too) and returns it with the un-cancelled scale mean(rB² + rB1²), the
// forward-error scale of a mean of squared differences. The instants fan
// out over the par pool and fold in order, so the result does not depend
// on the pool width.
func (c *CostEvaluator) costExact(dHat float64) (cost, scale float64) {
	eB := newExactRecon(c.setB, dHat, c.opt)
	eB1 := newExactRecon(c.setB1, dHat, c.opt)
	d2 := make([]*big.Float, len(c.times))
	s2 := make([]*big.Float, len(c.times))
	par.For(len(c.times), func(i int) {
		vB, vB1 := eB.at(c.times[i], dHat), eB1.at(c.times[i], dHat)
		d := bigSub(vB, vB1)
		d2[i] = bigMul(d, d)
		s2[i] = bigAdd(bigMul(vB, vB), bigMul(vB1, vB1))
	})
	acc, sq := bigF(0), bigF(0)
	for i := range d2 {
		acc.Add(acc, d2[i])
		sq.Add(sq, s2[i])
	}
	n := bigF(float64(len(c.times)))
	cost, _ = bigQuo(acc, n).Float64()
	scale, _ = bigQuo(sq, n).Float64()
	return cost, scale
}

// exactCase is one evaluator and candidate of the exact-oracle tests.
type exactCase struct {
	name string
	ce   *CostEvaluator
	dHat float64
}

// exactCases covers the regimes of the cost contract: the noiseless
// minimum (the paper captures at their true 180 ps, cost ~1e-9 of scale),
// a noisy minimum (the short-filter case at its true 250 ps), a far point
// (the paper captures at 400 ps) and the s0Zero half-rate band at its
// capture delay, where the three-tone signal's top tone lies outside the
// 40 MHz half-rate band, so the cost stays far from zero, and an instant
// within 1e-13 s of a sample, where the kernel's differences cancel. The
// paper cases use the first 40 of paperEvaluator's instants
// to keep the big-float work to seconds.
func exactCases(t *testing.T) []exactCase {
	t.Helper()
	bandB, bandB1 := paperBands()
	setB := idealSet(bandB, 0, 180e-12, 220)
	setB1 := idealSet(bandB1, -300e-9, 180e-12, 130)
	paper, err := NewCostEvaluator(setB, setB1, RandomTimes(470e-9, 1700e-9, 40, 1), pnbs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fc := fusedCases()
	// FuzzCostFusedVsSerial's seed efca8980626a2f67 puts a rate-B instant
	// 4e-14 s from a delayed-channel sample.
	near, dNear, _, ok := noiseEvaluator(-143.64, 77, 0x1e)
	if !ok {
		t.Fatal("near-sample case refused")
	}
	return []exactCase{
		{"noiseless-min", paper, 180e-12},
		{"noisy-min/short-filter", caseEvaluator(t, fc[1], 120), 250e-12},
		{"far/400ps", paper, 400e-12},
		{"s0zero-halfrate/180ps", caseEvaluator(t, fc[3], 32), 180e-12},
		{"near-sample/noise", near, dNear},
	}
}

// TestCostMatchesExact states the estimate-stage cost contract against
// exact arithmetic: Cost and its serial oracle costSerial must each lie
// within 1e-9·max(|got|, |exact|) + 1e-15·scale of costExact, where scale
// is mean(rB² + rB1²). The relative term governs away from the minimum;
// the scale term is the forward-error floor of the difference of squares,
// which governs at a noiseless minimum, where the cost is ~1e-9 of scale
// and any float64 summation order differs at ~1e-8 relative.
func TestCostMatchesExact(t *testing.T) {
	for _, ec := range exactCases(t) {
		exact, scale := ec.ce.costExact(ec.dHat)
		got, err := ec.ce.Cost(ec.dHat)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := ec.ce.costSerial(ec.dHat)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name string
			v    float64
		}{{"Cost", got}, {"costSerial", serial}} {
			e := math.Abs(p.v - exact)
			t.Logf("%s: %s %.17g, exact %.17g: error %.3g relative, %.3g of scale %.4g",
				ec.name, p.name, p.v, exact, e/exact, e/scale, scale)
			if !withinCostTier(p.v, exact, scale) {
				t.Errorf("%s: %s %.17g vs exact %.17g: error %.3g exceeds 1e-9 relative + %g of scale %g",
					ec.name, p.name, p.v, exact, e, costEps, scale)
			}
		}
	}
}

// costEps is the scale term of the cost contract: the forward-error
// bound of Eq. (7)'s difference of squares, relative to mean(rB² + rB1²).
const costEps = 1e-15

// withinCostTier reports whether a and b agree under the estimate-stage
// cost contract: |a − b| <= 1e-9·max(|a|, |b|) + costEps·scale.
func withinCostTier(a, b, scale float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+costEps*scale
}

// costScale returns the contract's scale mean(rB² + rB1²) at dHat, from
// reconstructors built as costSerial builds them.
func (c *CostEvaluator) costScale(dHat float64) (float64, error) {
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
		vB, vB1 := rB.At(tv), rB1.At(tv)
		acc += vB*vB + vB1*vB1
	}
	return acc / float64(len(c.times)), nil
}

// serialRef returns the serial oracle's cost at dHat with the contract's
// scale there.
func serialRef(t *testing.T, c *CostEvaluator, dHat float64) (cost, scale float64) {
	t.Helper()
	cost, err := c.costSerial(dHat)
	if err != nil {
		t.Fatal(err)
	}
	if scale, err = c.costScale(dHat); err != nil {
		t.Fatal(err)
	}
	return cost, scale
}
