package pnbs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomFeasibleBand draws a band and a stable delay from the generator.
func randomFeasibleBand(rng *rand.Rand) (Band, float64) {
	for {
		band := Band{
			FLow: 100e6 + rng.Float64()*2.9e9,
			B:    10e6 + rng.Float64()*90e6,
		}
		d := band.OptimalD() * (0.5 + rng.Float64()) // [0.5, 1.5] x optimal
		if _, err := NewKernel(band, d); err == nil {
			return band, d
		}
	}
}

// randomBand draws a band with a stable delay, integer-positioned
// (s0 = 0) one time in four.
func randomBand(rng *rand.Rand) (Band, float64) {
	if rng.Intn(4) > 0 {
		return randomFeasibleBand(rng)
	}
	for {
		b := 10e6 + rng.Float64()*90e6
		band := Band{FLow: float64(2+rng.Intn(40)) * b / 2, B: b}
		d := band.OptimalD() * (0.5 + rng.Float64())
		if _, err := NewKernel(band, d); err == nil && band.IntegerPositioned() {
			return band, d
		}
	}
}

// randomBeta picks the paper's taper, another Kaiser beta, or (one time in
// five) the rectangular window.
func randomBeta(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return -1
	case 1:
		return 2 + 10*rng.Float64()
	}
	return 8
}

func TestKernelIdentitiesPropertyRandomBands(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		band, d := randomFeasibleBand(rng)
		k, err := NewKernel(band, d)
		if err != nil {
			return false
		}
		// s(0) = 1.
		if math.Abs(k.S(0)-1) > 1e-6 {
			t.Logf("seed %d: s(0) = %g for band %+v d %g", seed, k.S(0), band, d)
			return false
		}
		// s(mT) = 0 for m != 0.
		for _, m := range []int{1, -2, 3, 7} {
			if v := k.S(float64(m) * band.T()); math.Abs(v) > 1e-6 {
				t.Logf("seed %d: s(%dT) = %g", seed, m, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReconstructionPropertyRandomBands(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		band, d := randomFeasibleBand(rng)
		// Random in-band tone, ideal sampling, modest capture.
		f0 := band.FLow + (0.1+0.8*rng.Float64())*band.B
		ph := 2 * math.Pi * rng.Float64()
		eval := func(tv float64) float64 { return math.Cos(2*math.Pi*f0*tv + ph) }
		tt := band.T()
		n := 200
		ch0 := make([]float64, n)
		ch1 := make([]float64, n)
		for i := 0; i < n; i++ {
			ch0[i] = eval(float64(i) * tt)
			ch1[i] = eval(float64(i)*tt + d)
		}
		rec, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		lo, hi := rec.ValidRange()
		worst := 0.0
		for i := 0; i < 40; i++ {
			tv := lo + (hi-lo)*rng.Float64()
			if e := math.Abs(rec.At(tv) - eval(tv)); e > worst {
				worst = e
			}
		}
		if worst > 2e-2 {
			t.Logf("seed %d: band %+v d %g: worst error %g", seed, band, d, worst)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEq4BoundPropertyRandomBands(t *testing.T) {
	// DeltaDFor and SpectralErrorBound must stay exact inverses, and the
	// bound must scale linearly in dD for every band.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		band, _ := randomFeasibleBand(rng)
		rel := 0.001 + rng.Float64()*0.1
		dd := DeltaDFor(band, rel)
		if math.Abs(SpectralErrorBound(band, dd)-rel) > 1e-12 {
			return false
		}
		return math.Abs(SpectralErrorBound(band, 2*dd)-2*rel) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPBSWindowsPropertyNoOverlapAndCoverMin(t *testing.T) {
	// For random bands: windows are disjoint and 2B is a lower bound on
	// every alias-free rate.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		band, _ := randomFeasibleBand(rng)
		wins, err := AllowedWindows(band)
		if err != nil || len(wins) == 0 {
			return false
		}
		for i := 1; i < len(wins); i++ {
			if wins[i].Hi > wins[i-1].Lo+1e-3 {
				return false
			}
		}
		for _, w := range wins {
			if w.Lo < 2*band.B-1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestKernelFactorisationProperty checks Kernel.S, and the factorisation
// the fused path's delayed-channel series rests on, against the exact
// kernel (exactS). With dt1 = dtd + D and φ_q = κ_q·D, each kernel term's
// numerator takes the fused path's form
//
//	−2·sin(κ·dt1 − φ)·sin(β·dt1) = −2·sin(κ·dtd)·sin(β·dt1).
//
// Over random bands (integer-positioned ones included), delays and
// offsets, and at dt1 = 0, ±1e-18, ±1e-15, ±5e-14, ±1.01e-13, ±1e-12,
// ±5e-12 and ±1e-11 s, S and the dtd form must each lie within rounding
// of exactS: 8 ulps of each term's cancellation scale,
// (1 + 2m·(|dt1| + |D|)) / (2πB|sin φ|·max(|dt1|, 1/(2m))), with
// m = max(|κ|, |β|). The offsets 1e-13–1e-11 s are the ones the kernel's
// former difference of cosines lost to cancellation (~eps/|dt1|).
func TestKernelFactorisationProperty(t *testing.T) {
	const eps = 0x1p-52
	rng := rand.New(rand.NewSource(38))
	worstS, worstProd := 0.0, 0.0
	for trial := 0; trial < 400; trial++ {
		band, d := randomBand(rng)
		k, err := NewKernel(band, d)
		if err != nil {
			t.Fatal(err)
		}
		span := 31 * band.T()
		offsets := []float64{0, 1e-18, -1e-18, 1e-15, -1e-15, 5e-14, -5e-14,
			1.01e-13, -1.01e-13, 1e-12, -1e-12, 5e-12, -5e-12, 1e-11, -1e-11}
		for len(offsets) < 40 {
			offsets = append(offsets, span*(2*rng.Float64()-1))
		}
		twoPiB := 2 * math.Pi * band.B
		for _, dt1 := range offsets {
			dtd := dt1 - d
			prod, tol := 0.0, 0.0
			for q := range k.phi {
				if q == 0 && k.s0Zero {
					continue
				}
				prod += -2 * math.Sin(k.kappa[q]*dtd) * sinOverT(k.beta[q], dt1) / (twoPiB * k.sin[q])
				ab := 2 * math.Max(math.Abs(k.kappa[q]), math.Abs(k.beta[q]))
				tol += 8 * eps * (1 + ab*(math.Abs(dt1)+math.Abs(d))) /
					(twoPiB * math.Abs(k.sin[q]) * math.Max(math.Abs(dt1), 1/ab))
			}
			exact, _ := exactS(k, bigF(dt1)).Float64()
			s := k.S(dt1)
			if e := math.Abs(s - exact); e > tol {
				t.Errorf("band %+v D=%g dt1=%g: S %.17g vs exact %.17g (error %.3g > %.3g)",
					band, d, dt1, s, exact, e, tol)
			} else {
				worstS = math.Max(worstS, e/tol)
			}
			if e := math.Abs(prod - exact); e > tol {
				t.Errorf("band %+v D=%g dt1=%g: dtd form %.17g vs exact %.17g (error %.3g > %.3g)",
					band, d, dt1, prod, exact, e, tol)
			} else {
				worstProd = math.Max(worstProd, e/tol)
			}
		}
	}
	t.Logf("worst error of the rounding bound: S %.3g, dtd form %.3g", worstS, worstProd)
}
