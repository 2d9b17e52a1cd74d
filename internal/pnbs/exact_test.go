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

// exactS evaluates the kernel s(dt) of Eq. (2) in exactPrec arithmetic from
// the kernel's float64 constants: each term is
// [cos(a dt − φ) − cos(b dt − φ)] / (2π B dt sin φ_f), with φ_f the
// kernel's float64 sine, and dt = 0 takes the limit (a − b) sin φ / (2π B sin φ_f).
func exactS(k *Kernel, dt *big.Float) *big.Float {
	twoPiB := bigMul(bigMul(exactPi, bigF(2)), bigF(k.band.B))
	term := func(a, b, phi, sinF float64) *big.Float {
		ba, bb, bphi := bigF(a), bigF(b), bigF(phi)
		den := bigMul(twoPiB, bigF(sinF))
		if dt.Sign() == 0 {
			halfPi := new(big.Float).SetPrec(exactPrec).Quo(exactPi, bigF(2))
			sinPhi := bigCos(bigSub(bphi, halfPi))
			num := bigMul(bigSub(ba, bb), sinPhi)
			return new(big.Float).SetPrec(exactPrec).Quo(num, den)
		}
		num := bigSub(bigCos(bigSub(bigMul(ba, dt), bphi)), bigCos(bigSub(bigMul(bb, dt), bphi)))
		return new(big.Float).SetPrec(exactPrec).Quo(num, bigMul(den, dt))
	}
	s := term(k.a1, k.b1, k.phi1, k.sin1)
	if !k.s0Zero {
		s.Add(s, term(k.a0, k.b0, k.phi0, k.sin0))
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

// TestAtMatchesExactEq6 checks both float64 evaluators of Eq. (6), the
// phasor-recurrence At and the direct atReference, against the exact sum
// on the bands of TestAtMatchesReferenceImplementation: each must be within
// 1e-11 of the un-cancelled scale Σ |ch·w·s|, at 25 instants across the
// valid range and on a sample instant.
func TestAtMatchesExactEq6(t *testing.T) {
	const bound = 1e-11
	for _, band := range []Band{
		{FLow: 955e6, B: 90e6},
		{FLow: 900e6, B: 90e6}, // integer positioned
		{FLow: 2.164e9, B: 72e6},
	} {
		rec := sineTestReconstructor(t, band)
		lo, hi := rec.ValidRange()
		ts := []float64{1e-7 + 50*band.T()} // on a sample instant
		for i := 0; i < 25; i++ {
			ts = append(ts, lo+(hi-lo)*float64(i)/24)
		}
		worstAt, worstRef := 0.0, 0.0
		for _, tv := range ts {
			exact, scale := exactAt(rec, tv)
			eAt := math.Abs(rec.At(tv)-exact) / scale
			eRef := math.Abs(rec.atReference(tv)-exact) / scale
			if eAt > bound || eRef > bound {
				t.Errorf("band %+v t=%g: At off by %.3g, atReference by %.3g of scale %g (bound %g)",
					band, tv, eAt, eRef, scale, bound)
			}
			worstAt, worstRef = math.Max(worstAt, eAt), math.Max(worstRef, eRef)
		}
		t.Logf("band %+v: worst error relative to scale: At %.3g, atReference %.3g", band, worstAt, worstRef)
	}
}
