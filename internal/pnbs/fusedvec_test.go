package pnbs

import (
	"math"
	"math/rand"
	"testing"
)

// The vector encoding of the prompt-channel fold must equal the Go loop bit
// for bit; these tests compare Float64bits, never a tolerance.

// withGoKernels runs f with the vector kernel off.
func withGoKernels(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f()
}

func needAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: the Go loop is the only path")
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRow(a, b fusedRow) bool {
	return a.nLo == b.nLo && a.cnt == b.cnt && sameBits(a.dtdStart, b.dtdStart) &&
		sameBits(a.pc0, b.pc0) && sameBits(a.ps0, b.ps0) && sameBits(a.pc1, b.pc1) && sameBits(a.ps1, b.ps1)
}

// vectorCase is one randomized reconstructor with instants that exercise
// every dispatch branch: interior instants (vector groups), instants on
// sample points (near-sample branches), capture edges (partial spans),
// out-of-capture instants, and counts that are not a multiple of 4.
type vectorCase struct {
	r  *Reconstructor
	ts []float64
}

func newVectorCase(t testing.TB, rng *rand.Rand, band Band, d float64, h int, beta float64) vectorCase {
	t.Helper()
	n := 2*h + 2 + rng.Intn(120)
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := range ch0 {
		ch0[i] = 2*rng.Float64() - 1
		ch1[i] = 2*rng.Float64() - 1
	}
	t0 := 1e-7 * rng.Float64()
	r, err := NewReconstructor(band, d, t0, ch0, ch1, Options{HalfTaps: h, KaiserBeta: beta})
	if err != nil {
		t.Fatalf("band %+v d %g h %d: %v", band, d, h, err)
	}
	lo, hi := r.ValidRange()
	ts := make([]float64, 1+rng.Intn(70))
	for i := range ts {
		switch u := rng.Float64(); {
		case u < 0.6: // interior
			ts[i] = lo + (hi-lo)*rng.Float64()
		case u < 0.7: // on a sample point of the prompt channel
			ts[i] = t0 + float64(h+rng.Intn(n-2*h))*r.tStep
		case u < 0.8: // on a sample point of the delayed channel
			ts[i] = t0 + float64(h+rng.Intn(n-2*h))*r.tStep + d
		default: // anywhere, edges and outside included
			ts[i] = t0 + (float64(n)+6)*r.tStep*rng.Float64() - 3*r.tStep
		}
	}
	return vectorCase{r: r, ts: ts}
}

// randomVectorBand draws a band with a stable delay, integer-positioned
// (s0 = 0) one time in four.
func randomVectorBand(rng *rand.Rand) (Band, float64) {
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

// checkVectorCase compares, bit for bit, the table and the cost partial of
// c with the vector kernel on and off, and returns how many row groups
// went through the kernel. The table serves ±T/4, so the cost is compared
// at the reconstructor's delay when it lies there.
func checkVectorCase(t testing.TB, c vectorCase) (rowGroups int) {
	t.Helper()
	r := c.r
	q := r.tStep / 4
	tab := costTable(t, r, c.ts, -q, q)
	var ref *CostTable
	withGoKernels(func() { ref = costTable(t, r, c.ts, -q, q) })
	for i := range tab.rows {
		if !sameRow(tab.rows[i], ref.rows[i]) {
			t.Fatalf("t=%g row %d: vector %+v != Go %+v", c.ts[i], i, tab.rows[i], ref.rows[i])
		}
	}
	if !sameTable(tab, ref) {
		t.Fatal("series coefficients differ between the vector and Go builds")
	}
	// Direct group calls count the groups the row kernel takes.
	if r.costRowsVectorOK() {
		for i := 0; i+4 <= len(c.ts); i += 4 {
			g := make([]fusedRow, 4)
			for j := range g {
				r.costRowSpan(&g[j], c.ts[i+j])
			}
			if r.costRowsVector(g, c.ts[i:i+4]) {
				rowGroups++
			}
		}
	}
	if d := r.kern.d; math.Abs(d) <= q {
		got := CostFused(eval(t, tab, d), eval(t, tab, d), 0, len(c.ts))
		var want float64
		withGoKernels(func() { e := eval(t, ref, d); want = CostFused(e, e, 0, len(c.ts)) })
		if !sameBits(got, want) {
			t.Fatalf("d=%g: CostFused vector %.17g != Go %.17g", d, got, want)
		}
	}
	return rowGroups
}

// TestFusedVectorMatchesGo: over random bands (integer-positioned ones
// included), HalfTaps 4–31, Kaiser and rectangular windows, and instants
// at edges, on sample points and in tails, the vector kernel gives the
// Go loop's bits — and it does run on most interior groups.
func TestFusedVectorMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(26))
	rowGroups := 0
	for trial := 0; trial < 200; trial++ {
		band, d := randomVectorBand(rng)
		rowGroups += checkVectorCase(t, newVectorCase(t, rng, band, d, 4+rng.Intn(28), randomBeta(rng)))
	}
	if rowGroups < 200 {
		t.Fatalf("vector kernel barely ran: %d row groups", rowGroups)
	}
}

// TestFusedVectorPaperSize pins the paper configuration (both rates, 61
// taps, Kaiser 8) at a paper-size instant block.
func TestFusedVectorPaperSize(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(90))
	for _, band := range []Band{{FLow: 955e6, B: 90e6}, {FLow: 977.5e6, B: 45e6}} {
		ch0, ch1 := toneCapture(band, 180e-12, 260)
		r, err := NewReconstructor(band, band.OptimalD(), 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := r.ValidRange()
		ts := make([]float64, 301)
		for i := range ts {
			ts[i] = lo + (hi-lo)*rng.Float64()
		}
		if rg := checkVectorCase(t, vectorCase{r: r, ts: ts}); rg < 70 {
			t.Fatalf("band %+v: %d row groups took the vector path", band, rg)
		}
	}
}

// TestFusedVectorSincos checks the 4-lane Sincos against math.Sincos bit
// for bit over 2M lanes: wide and narrow ranges, both signs, octant edges,
// tiny and subnormal inputs, and values just below 2^29.
func TestFusedVectorSincos(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(4))
	gen := []func() float64{
		func() float64 { return 8*rng.Float64() - 4 },
		func() float64 { return 6000*rng.Float64() - 3000 },
		func() float64 { // log-uniform magnitude in [1e-300, 2^29)
			return math.Copysign(math.Exp(math.Log(1e-300)+rng.Float64()*(math.Log(1<<29)-math.Log(1e-300))), rng.Float64()-0.5)
		},
		func() float64 { // within a few ulps of an octant edge
			x := float64(rng.Intn(1<<20)+1) * math.Pi / 4
			for s := rng.Intn(9) - 4; s != 0; s -= int(math.Copysign(1, float64(s))) {
				x = math.Nextafter(x, math.Copysign(math.Inf(1), float64(s)))
			}
			return math.Copysign(x, rng.Float64()-0.5)
		},
		func() float64 { return (1 << 29) - 1e4*rng.Float64() },
		func() float64 { return math.Float64frombits(1 + uint64(rng.Int63n(1<<52))) }, // subnormal
	}
	fixed := []float64{math.Nextafter(1<<29, 0), -math.Nextafter(1<<29, 0), math.SmallestNonzeroFloat64, math.Pi / 4, -math.Pi / 2, 1e-160}
	var x, s, c [4]float64
	check := func() {
		sincos4(&x, &s, &c)
		for l, v := range x {
			ws, wc := math.Sincos(v)
			if !sameBits(s[l], ws) || !sameBits(c[l], wc) {
				t.Fatalf("Sincos(%v = %#x): vector (%v, %v), math (%v, %v)", v, math.Float64bits(v), s[l], c[l], ws, wc)
			}
		}
	}
	for i := 0; i+4 <= len(fixed); i += 2 {
		copy(x[:], fixed[i:i+4])
		check()
	}
	for n := 0; n < 500000; n++ {
		g := gen[n%len(gen)]
		for l := range x {
			x[l] = g()
		}
		check()
	}
}

// TestKernelB1EqualsA0 pins the identity costRowFold and costRows4 rely on
// to reuse the a0 Sincos for the b1 term.
func TestKernelB1EqualsA0(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		band, d := randomVectorBand(rng)
		k, err := NewKernel(band, d)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(k.b1, k.a0) {
			t.Fatalf("band %+v: b1 %#x != a0 %#x", band, math.Float64bits(k.b1), math.Float64bits(k.a0))
		}
	}
}

// FuzzFusedVectorVsScalar differentially fuzzes the vector kernel against
// the Go loop over band, delay, tap count, window and capture.
func FuzzFusedVectorVsScalar(f *testing.F) {
	f.Add(0.3, 0.9, 0.5, uint8(26), false, int64(1)) // the paper's 61 taps
	f.Add(0.1, 0.2, 0.9, uint8(0), false, int64(2))  // 9 taps
	f.Add(0.5, 0.5, 0.2, uint8(27), true, int64(3))  // rectangular, 63 taps
	f.Add(0.7, 0.1, 1.4, uint8(9), false, int64(4))
	f.Fuzz(func(t *testing.T, flFrac, bFrac, dFrac float64, hTaps uint8, rect bool, seed int64) {
		needAVX2(t)
		for _, v := range []float64{flFrac, bFrac, dFrac} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		band := Band{FLow: 100e6 + math.Abs(math.Remainder(flFrac, 1))*2.9e9, B: 10e6 + math.Abs(math.Remainder(bFrac, 1))*90e6}
		d := band.OptimalD() * (0.2 + math.Abs(math.Remainder(dFrac, 2)))
		if _, err := NewKernel(band, d); err != nil {
			t.Skip()
		}
		beta := 8.0
		if rect {
			beta = -1
		}
		rng := rand.New(rand.NewSource(seed))
		checkVectorCase(t, newVectorCase(t, rng, band, d, 4+int(hTaps)%28, beta))
	})
}
