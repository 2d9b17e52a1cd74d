package pnbs

import (
	"math"
	"math/rand"
	"testing"
)

// The vector encodings of the fused kernels must equal the Go loops bit
// for bit; these tests compare Float64bits, never a tolerance.

// withGoKernels runs f with the vector kernels off.
func withGoKernels(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f()
}

func needAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: the Go loops are the only path")
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRow(a, b fusedRow) bool {
	return a.nLo == b.nLo && a.cnt == b.cnt && sameBits(a.dtdStart, b.dtdStart) &&
		sameBits(a.pc0, b.pc0) && sameBits(a.ps0, b.ps0) && sameBits(a.pc1, b.pc1) && sameBits(a.ps1, b.ps1)
}

// vectorCase is one randomized reconstructor with instants that exercise
// every dispatch branch: interior instants (vector groups), instants on
// sample points (series branches), capture edges (partial spans),
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

// checkVectorCase compares, bit for bit, the table, the per-instant values
// and the cost partials of c with the vector kernels on and off, at the
// reconstructor's delay and at extra candidates. It returns how many
// groups went through each kernel.
func checkVectorCase(t testing.TB, c vectorCase, rng *rand.Rand) (rowGroups, tapGroups int) {
	t.Helper()
	r := c.r
	tab := r.CostTable(c.ts)
	var ref *CostTable
	withGoKernels(func() { ref = r.CostTable(c.ts) })
	for i := range tab.rows {
		if !sameRow(tab.rows[i], ref.rows[i]) {
			t.Fatalf("t=%g row %d: vector %+v != Go %+v", c.ts[i], i, tab.rows[i], ref.rows[i])
		}
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
	// Beyond |D| = T/2 the last taps of a full span leave the taper
	// (ax >= 1), which the tap kernel masks to +0.0.
	band := r.kern.band
	ds := []float64{r.kern.d, r.kern.d * (0.9 + 0.2*rng.Float64()), -r.kern.d,
		band.T() * (0.5 + 2*rng.Float64()), -band.T() * (0.5 + 2*rng.Float64())}
	for _, d := range ds {
		k, err := NewKernel(band, d)
		if err != nil {
			continue
		}
		e := tab.eval(k)
		var out [4]float64
		for i := 0; i < len(c.ts); i += 4 {
			n := min(4, len(c.ts)-i)
			if n == 4 && e.vec.n != 0 && e.taps4(i, &out) {
				tapGroups++
				for l := range out {
					if want := e.at(i + l); !sameBits(out[l], want) {
						t.Fatalf("d=%g t=%g: vector tap fold %.17g != Go %.17g", d, c.ts[i+l], out[l], want)
					}
				}
			}
			e.at4(i, n, &out)
			for l := range n {
				if want := e.at(i + l); !sameBits(out[l], want) {
					t.Fatalf("d=%g t=%g: at4 %.17g != at %.17g", d, c.ts[i+l], out[l], want)
				}
			}
		}
		got := CostFused(tab, k, tab, k, 0, len(c.ts))
		var want float64
		withGoKernels(func() { want = CostFused(ref, k, ref, k, 0, len(c.ts)) })
		if !sameBits(got, want) {
			t.Fatalf("d=%g: CostFused vector %.17g != Go %.17g", d, got, want)
		}
	}
	return rowGroups, tapGroups
}

// TestFusedVectorMatchesGo: over random bands (integer-positioned ones
// included), HalfTaps 4–31, Kaiser and rectangular windows, and instants
// at edges, on sample points and in tails, the vector kernels give the
// Go loops' bits — and they do run on most interior groups.
func TestFusedVectorMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(26))
	rowGroups, tapGroups := 0, 0
	for trial := 0; trial < 200; trial++ {
		band, d := randomVectorBand(rng)
		c := newVectorCase(t, rng, band, d, 4+rng.Intn(28), randomBeta(rng))
		rg, tg := checkVectorCase(t, c, rng)
		rowGroups += rg
		tapGroups += tg
	}
	if rowGroups < 200 || tapGroups < 200 {
		t.Fatalf("vector kernels barely ran: %d row groups, %d tap groups", rowGroups, tapGroups)
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
		if rg, tg := checkVectorCase(t, vectorCase{r: r, ts: ts}, rng); rg < 70 || tg < 200 {
			t.Fatalf("band %+v: %d row groups, %d tap groups took the vector path", band, rg, tg)
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

// TestFusedVectorSeedDomain: a seed argument of ±0, NaN, ±Inf or |x| >=
// 2^29 is outside the vector Sincos' domain, so the tap kernel refuses the
// group (and at4 then takes the Go loop); arguments inside run.
func TestFusedVectorSeedDomain(t *testing.T) {
	needAVX2(t)
	ch := make([]float64, 8)
	coef := lutFor(8).coef
	vc := tapConst{winScale: 1, lutInv: lutSize, tStep: 0.01, inv0: 1, inv1: 1, coef: &coef[0], n: 4}
	for a := range vc.seed {
		vc.seed[a] = [4]float64{1, 0.25, 1, 0}
	}
	run := func(dt1 float64) bool {
		l := tapLanes{dt1: [4]float64{0.3, 0.3, dt1, 0.3}, c: &vc}
		for j := range l.ch1 {
			l.ch1[j] = &ch[0]
		}
		return fusedTaps4(&l)
	}
	if !run(0.31) {
		t.Fatal("in-domain seeds refused")
	}
	// x = dt1 − 0.25.
	for _, dt1 := range []float64{0.25, math.NaN(), math.Inf(1), math.Inf(-1), 0.25 + (1 << 29), 0.25 - (1 << 29)} {
		if run(dt1) {
			t.Errorf("seed argument %g accepted", dt1-0.25)
		}
	}
	vc.seed[3][1] = 0 // x = dt1 − 0: −0 for dt1 = −0
	if run(math.Copysign(0, -1)) {
		t.Error("seed argument -0 accepted")
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

// FuzzFusedVectorVsScalar differentially fuzzes the vector kernels against
// the Go loops over band, delay, tap count, window and capture.
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
		checkVectorCase(t, newVectorCase(t, rng, band, d, 4+int(hTaps)%28, beta), rng)
	})
}
