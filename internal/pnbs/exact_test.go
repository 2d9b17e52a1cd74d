package pnbs

import (
	"math"
	"math/big"
	"testing"
)

// exactPrec is the working precision, in bits, of the exact Eq. (6) oracle.
const exactPrec = 256

// exactPi is π to 100 decimal places, for the oracle's argument reduction.
var exactPi, _, _ = big.ParseFloat("3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679", 10, exactPrec, big.ToNearestEven)

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(x) }

func bigMul(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Mul(a, b) }

func bigSub(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Sub(a, b) }

// bigCos returns cos(x) to about exactPrec bits: x is reduced into
// [−π, π] by a multiple of 2π taken from exactPi, then the Taylor series
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
	return bigCos(bigSub(x, new(big.Float).SetPrec(exactPrec).Quo(exactPi, bigF(2))))
}

// exactS evaluates the kernel s(dt) of Eq. (2) in exactPrec arithmetic from
// the kernel's own float64 κ_q, β_q, φ_q and sin φ_q: each term is the exact
// product −2·sin(κ dt − φ)·sin(β dt) / (2π B dt sin φ_f), with φ_f the
// kernel's float64 sine, and dt = 0 takes the limit
// −2·sin(−φ)·β / (2π B sin φ_f).
func exactS(k *Kernel, dt *big.Float) *big.Float {
	twoPiB := bigMul(bigMul(exactPi, bigF(2)), bigF(k.band.B))
	s := bigF(0)
	for q := range k.phi {
		if q == 0 && k.s0Zero {
			continue
		}
		arg := bigSub(bigMul(bigF(k.kappa[q]), dt), bigF(k.phi[q]))
		num := bigMul(bigF(-2), bigSin(arg))
		den := bigMul(twoPiB, bigF(k.sin[q]))
		if dt.Sign() == 0 {
			num = bigMul(num, bigF(k.beta[q]))
		} else {
			num = bigMul(num, bigSin(bigMul(bigF(k.beta[q]), dt)))
			den = bigMul(den, dt)
		}
		s.Add(s, new(big.Float).SetPrec(exactPrec).Quo(num, den))
	}
	return s
}

// exactAt evaluates At's sum Σ_n w(dt) [ch0[n] s(dt0) + ch1[n] s(dt1)] over
// the same tap span in exactPrec arithmetic. The offsets dt0 = t − t0 − nT
// and dt1 = t0 + nT + D − t are formed exactly from the float64 t, t0, T
// and D, and each tap uses the production taper value at its offset, so
// the oracle measures the rounding of the sum, not the taper table. It
// returns the sum and the un-cancelled scale Σ |ch·w·s|.
func exactAt(r *Reconstructor, t float64) (sum, scale float64) {
	nLo, nHi := r.span(t)
	acc, abs := bigF(0), bigF(0)
	add := func(ch float64, dt *big.Float) {
		dtF, _ := dt.Float64()
		w := r.window(dtF)
		if w == 0 {
			return
		}
		v := bigMul(bigMul(bigF(ch), bigF(w)), exactS(r.kern, dt))
		acc.Add(acc, v)
		abs.Add(abs, new(big.Float).Abs(v))
	}
	for n := nLo; n <= nHi; n++ {
		tn := new(big.Float).SetPrec(exactPrec).Add(bigF(r.t0), bigMul(bigF(float64(n)), bigF(r.tStep)))
		add(r.ch0[n], bigSub(bigF(t), tn))
		add(r.ch1[n], bigSub(new(big.Float).SetPrec(exactPrec).Add(tn, bigF(r.kern.D())), bigF(t)))
	}
	sum, _ = acc.Float64()
	scale, _ = abs.Float64()
	return sum, scale
}

// nearSampleTimes returns instants whose nearest prompt-channel tap sits
// 0, 1e-18, 1e-14, 5e-13 and 1e-12 s and just inside and outside T/8 from
// its sample (either sign), and the capture's first sample, where the
// clamped span starts on the instant. An interior instant's accumulated
// offsets miss 0 by ~1e-22 s, so only the first sample reaches an offset
// of exactly 0.
func nearSampleTimes(rec *Reconstructor, band Band) []float64 {
	tt := band.T()
	ts := []float64{rec.t0}
	for i, x := range []float64{0, 1e-18, -1e-18, 1e-14, 5e-13, -1e-12, tt / 8 * (1 - 1e-9), -tt / 8 * (1 + 1e-9)} {
		ts = append(ts, 1e-7+float64(50+i)*tt+x)
	}
	return ts
}

// TestAtMatchesExactEq6 checks At against the exact sum: it must be within
// 1e-11 of the un-cancelled scale Σ |ch·w·s|, at 25 instants across the
// valid range and at the near-sample instants of nearSampleTimes, where a
// tap's kernel value is taken within 1e-18–1e-12 s of its removable
// singularity.
func TestAtMatchesExactEq6(t *testing.T) {
	const bound = 1e-11
	for _, band := range []Band{
		{FLow: 955e6, B: 90e6},
		{FLow: 900e6, B: 90e6}, // integer positioned
		{FLow: 2.164e9, B: 72e6},
	} {
		rec := sineTestReconstructor(t, band)
		lo, hi := rec.ValidRange()
		ts := nearSampleTimes(rec, band)
		for i := 0; i < 25; i++ {
			ts = append(ts, lo+(hi-lo)*float64(i)/24)
		}
		worst := 0.0
		for _, tv := range ts {
			exact, scale := exactAt(rec, tv)
			e := math.Abs(rec.At(tv)-exact) / scale
			if e > bound {
				t.Errorf("band %+v t=%g: At off by %.3g of scale %g (bound %g)", band, tv, e, scale, bound)
			}
			worst = math.Max(worst, e)
		}
		t.Logf("band %+v: worst At error relative to scale %.3g", band, worst)
	}
}

// TestCostTableMatchesExactEq6 holds the fused cost table, evaluated at
// the reconstructor's delay, to TestAtMatchesExactEq6's bound against the
// exact sum, on the same bands and instants. The near-sample instants
// straddle the offsets at which the row's prompt fold leaves the rotated
// sine for the direct sin(β·x)/x (T/8), and the capture's first sample
// reaches its limit β.
func TestCostTableMatchesExactEq6(t *testing.T) {
	const bound = 1e-11
	for _, band := range []Band{
		{FLow: 955e6, B: 90e6},
		{FLow: 900e6, B: 90e6}, // integer positioned
		{FLow: 2.164e9, B: 72e6},
	} {
		rec := sineTestReconstructor(t, band)
		lo, hi := rec.ValidRange()
		ts := nearSampleTimes(rec, band)
		for i := 0; i < 25; i++ {
			ts = append(ts, lo+(hi-lo)*float64(i)/24)
		}
		d := rec.Kernel().D()
		got := values(t, costTable(t, rec, ts, 0.5*d, 1.5*d), d)
		worst := 0.0
		for i, tv := range ts {
			exact, scale := exactAt(rec, tv)
			e := math.Abs(got[i]-exact) / scale
			if e > bound {
				t.Errorf("band %+v t=%g: table off by %.3g of scale %g (bound %g)", band, tv, e, scale, bound)
			}
			worst = math.Max(worst, e)
		}
		t.Logf("band %+v: worst table error relative to scale %.3g", band, worst)
	}
}
