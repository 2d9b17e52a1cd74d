package pnbs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// Kernel exposes the underlying interpolation kernel.
func (r *Reconstructor) Kernel() *Kernel { return r.kern }

// fusedClose checks |a-b| against the fused path's budget: 1e-9 relative
// with a 1e-9 absolute floor (values near a reconstruction zero-crossing
// have no meaningful relative error).
func fusedClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-9
}

// costTable builds r's cost table over ts for the delays [dLo, dHi].
func costTable(t testing.TB, r *Reconstructor, ts []float64, dLo, dHi float64) *CostTable {
	t.Helper()
	tab, err := r.CostTable(ts, dLo, dHi)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// values evaluates tab at every instant at delay d.
func values(t testing.TB, tab *CostTable, d float64) []float64 {
	t.Helper()
	v, err := tab.Values(d)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// eval prepares tab at delay d.
func eval(t testing.TB, tab *CostTable, d float64) *CostEval {
	t.Helper()
	e, err := tab.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	return &e
}

// TestFusedTableMatchesAt bounds the error of the fused path — a
// CostTable evaluated per instant at the reconstructor's own delay, inside
// the table's interval — against the per-instant At path over random
// bands, delays and instants, including an integer-positioned band
// (s0 = 0), instants on sample points (the Taylor branch of the contracted
// prompt tables, and dt1 = D on the delayed channel), and instants outside
// the capture (fused value must be exactly 0, like At).
func TestFusedTableMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bands := []Band{
		{FLow: 955e6, B: 90e6},   // the paper band
		{FLow: 977.5e6, B: 45e6}, // its half-rate companion
		{FLow: 430e6, B: 70e6},
		{FLow: 225e6, B: 50e6}, // 2 fl / B = 9: integer-positioned, s0 = 0
	}
	for bi, band := range bands {
		for trial := 0; trial < 3; trial++ {
			d := band.OptimalD() * (0.5 + rng.Float64())
			ch0, ch1 := toneCapture(band, d, 220)
			if trial == 2 {
				for i := range ch0 {
					ch0[i] += 0.1 * (2*rng.Float64() - 1)
					ch1[i] += 0.1 * (2*rng.Float64() - 1)
				}
			}
			r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
			if err != nil {
				t.Fatalf("band %d: %v", bi, err)
			}
			lo, hi := r.ValidRange()
			ts := make([]float64, 97)
			for i := range ts {
				ts[i] = lo + (hi-lo)*rng.Float64()
			}
			ts[0] = lo - 400*r.tStep // out of capture: both paths return 0
			ts[1] = r.t0 + 57*r.tStep
			got := values(t, costTable(t, r, ts, 0.5*d, 1.5*d), d)
			for i, tv := range ts {
				at := r.At(tv)
				if i == 0 && (got[i] != 0 || at != 0) {
					t.Fatalf("band %d: out-of-capture instant: fused %g, At %g", bi, got[i], at)
				}
				if !fusedClose(got[i], at) {
					t.Fatalf("band %d trial %d t=%g: fused table %.17g vs At %.17g",
						bi, trial, tv, got[i], at)
				}
			}
		}
	}
}

// TestFusedTablePropertyRandomBands holds the table to At, within the
// fused tolerance, over random bands (integer-positioned ones included),
// HalfTaps 4–31, Kaiser and rectangular windows, and instants in the
// interior, on sample points of either channel (the near-sample branches
// of both folds), at the capture edges (partial spans) and outside the
// capture. Each table serves ±T/4 and is evaluated at the reconstructor's
// delay where that lies inside.
func TestFusedTablePropertyRandomBands(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		band, d := randomBand(rng)
		h := 4 + rng.Intn(28)
		n := 2*h + 2 + rng.Intn(120)
		ch0 := make([]float64, n)
		ch1 := make([]float64, n)
		for i := range ch0 {
			ch0[i] = 2*rng.Float64() - 1
			ch1[i] = 2*rng.Float64() - 1
		}
		t0 := 1e-7 * rng.Float64()
		r, err := NewReconstructor(band, d, t0, ch0, ch1, Options{HalfTaps: h, KaiserBeta: randomBeta(rng)})
		if err != nil {
			t.Fatalf("band %+v d %g h %d: %v", band, d, h, err)
		}
		lo, hi := r.ValidRange()
		ts := make([]float64, 1+rng.Intn(70))
		for i := range ts {
			switch u := rng.Float64(); {
			case u < 0.6:
				ts[i] = lo + (hi-lo)*rng.Float64()
			case u < 0.7:
				ts[i] = t0 + float64(h+rng.Intn(n-2*h))*r.tStep
			case u < 0.8:
				ts[i] = t0 + float64(h+rng.Intn(n-2*h))*r.tStep + d
			default: // anywhere, edges and outside included
				ts[i] = t0 + (float64(n)+6)*r.tStep*rng.Float64() - 3*r.tStep
			}
		}
		q := r.tStep / 4
		if math.Abs(d) > q {
			continue
		}
		for i, v := range values(t, costTable(t, r, ts, -q, q), d) {
			if at := r.At(ts[i]); !fusedClose(v, at) {
				t.Fatalf("band %+v d %g h %d t=%g: fused table %.17g vs At %.17g", band, d, h, ts[i], v, at)
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 200 random tables served their own delay", checked)
	}
}

// delayTemplate builds the 180 ps template reconstructor the
// delay-independence tests share, with its capture and instants (one on a
// sample point, so the Taylor branch of the contracted tables is covered).
func delayTemplate(t *testing.T) (Band, []float64, []float64, *Reconstructor, []float64) {
	t.Helper()
	band := Band{FLow: 955e6, B: 90e6}
	ch0, ch1 := toneCapture(band, 180e-12, 260)
	tmpl, err := NewReconstructor(band, 180e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tmpl.ValidRange()
	rng := rand.New(rand.NewSource(5))
	ts := make([]float64, 64)
	for i := range ts {
		ts[i] = lo + (hi-lo)*rng.Float64()
	}
	ts[1] = tmpl.t0 + 57*tmpl.tStep // Taylor branch
	return band, ch0, ch1, tmpl, ts
}

// TestFusedTableDelayIndependent: a CostTable does not depend on the
// delay of the reconstructor it was built from, so a table built from a
// template at d1 and evaluated at d2 must equal, bit for bit, the table of
// a reconstructor freshly built at d2 over the same interval. This is what
// lets skew.CostEvaluator build its tables once and evaluate every
// candidate delay against them.
func TestFusedTableDelayIndependent(t *testing.T) {
	band, ch0, ch1, tmpl, ts := delayTemplate(t)
	const dLo, dHi = -250e-12, 240e-12
	tab := costTable(t, tmpl, ts, dLo, dHi)
	for _, d := range []float64{120e-12, 240e-12, -250e-12, 180e-12} {
		fresh, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := values(t, tab, d)
		want := values(t, costTable(t, fresh, ts, dLo, dHi), d)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%g i=%d: template table %.17g != fresh table %.17g", d, i, got[i], want[i])
			}
		}
	}
}

// sameTable reports whether two tables hold the same rows and series
// coefficients, bit for bit, over the first len(a.rows) instants.
func sameTable(a, b *CostTable) bool {
	if a.deg != b.deg || len(a.rows) > len(b.rows) {
		return false
	}
	for i := range a.rows {
		if a.rows[i] != b.rows[i] {
			return false
		}
	}
	for i, c := range a.ser {
		if math.Float64bits(c) != math.Float64bits(b.ser[i]) {
			return false
		}
	}
	return true
}

// TestFusedTableRowsSharedAcrossDelays: one CostTable is shared by every candidate
// delay, so its rows and series must be the same at any template delay
// and per instant: the template's equal, bit for bit, those of a fresh
// reconstructor at another delay, and a table over a prefix of the
// instants equals the prefix of the full table. Sharing leaves the
// template at its own delay, and a kernel at a forbidden delay is refused.
func TestFusedTableRowsSharedAcrossDelays(t *testing.T) {
	band, ch0, ch1, tmpl, ts := delayTemplate(t)
	const dLo, dHi = 100e-12, 300e-12
	tab := costTable(t, tmpl, ts, dLo, dHi)
	fresh, err := NewReconstructor(band, 240e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(tab, costTable(t, fresh, ts, dLo, dHi)) {
		t.Fatal("template table differs from the fresh reconstructor's")
	}
	if !sameTable(costTable(t, tmpl, ts[:20], dLo, dHi), tab) {
		t.Fatal("prefix table differs from the full table's prefix")
	}
	if tmpl.Kernel().D() != 180e-12 || fresh.Kernel().D() != 240e-12 {
		t.Fatalf("delays: template %g, fresh %g", tmpl.Kernel().D(), fresh.Kernel().D())
	}
	if _, err := NewKernel(band, 0); err == nil {
		t.Fatal("kernel at zero delay did not fail")
	}
}

// TestCostFusedChunkInvariance: the fused residual partial of a chunk is a
// pure function of the chunk bounds, so any chunking of [0, n) folded in
// order gives bit-identical totals — the worker-count-invariance primitive.
func TestCostFusedChunkInvariance(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	band1 := Band{FLow: 977.5e6, B: 45e6}
	d := 180e-12
	ch0, ch1 := toneCapture(band, d, 220)
	c10, c11 := toneCapture(band1, d, 130)
	rB, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rB1, err := NewReconstructor(band1, d, 0, c10, c11, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo0, hi0 := rB.ValidRange()
	lo1, hi1 := rB1.ValidRange()
	lo, hi := math.Max(lo0, lo1), math.Min(hi0, hi1)
	rng := rand.New(rand.NewSource(3))
	ts := make([]float64, 75)
	for i := range ts {
		ts[i] = lo + (hi-lo)*rng.Float64()
	}
	eB := eval(t, costTable(t, rB, ts, 100e-12, 300e-12), d)
	eB1 := eval(t, costTable(t, rB1, ts, 100e-12, 300e-12), d)
	whole := CostFused(eB, eB1, 0, len(ts))
	for _, chunk := range []int{1, 7, 16, 32, len(ts)} {
		acc := 0.0
		for c := 0; c < len(ts); c += chunk {
			end := c + chunk
			if end > len(ts) {
				end = len(ts)
			}
			acc += CostFused(eB, eB1, c, end)
		}
		// The fold order over chunks differs from the whole-range pass, so
		// compare to reassociation tolerance; per-chunk partials themselves
		// are exact, which the skew worker-invariance tests pin bitwise.
		if !fusedClose(acc, whole) {
			t.Fatalf("chunk=%d: %.17g vs whole %.17g", chunk, acc, whole)
		}
	}
}

// TestFusedPrepWorkerInvariance: the prepared rows are built in fixed
// chunks of instants over the pool, each row with its own serial folds and
// series fit, so the tables are identical at every pool width — including
// out-of-capture rows and a Taylor-branch instant on a sample point.
func TestFusedPrepWorkerInvariance(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	ch0, ch1 := toneCapture(band, d, 220)
	r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.ValidRange()
	rng := rand.New(rand.NewSource(9))
	ts := make([]float64, 301)
	for i := range ts {
		ts[i] = lo + (hi-lo)*rng.Float64()
	}
	ts[0] = lo - 400*r.tStep
	ts[1] = r.t0 + 57*r.tStep
	build := func(w int) *CostTable {
		defer par.SetWorkers(par.SetWorkers(w))
		return costTable(t, r, ts, 1e-12, 480e-12)
	}
	ref := build(1)
	for _, w := range []int{2, 8} {
		if !sameTable(build(w), ref) {
			t.Fatalf("workers=%d: table differs from the serial build", w)
		}
	}
}

// TestCostTableInterval: a table serves exactly its delay interval. Its
// ends evaluate; a delay outside is refused, never extrapolated; a delay
// violating Eq. (3) fails with NewKernel's error first. The widest
// interval Algorithm 1 can ask for, up to 0.999·T/2 (a band with k = 1),
// builds and matches At at its far end. An interval that is reversed, not
// a number, or reaches ±0.4999 T (where taps would cross the taper's
// support edge) is refused at build.
func TestCostTableInterval(t *testing.T) {
	band, ch0, ch1, tmpl, ts := delayTemplate(t)
	const dLo, dHi = 100e-12, 300e-12
	tab := costTable(t, tmpl, ts, dLo, dHi)
	for _, d := range []float64{dLo, dHi} {
		if _, err := tab.Eval(d); err != nil {
			t.Errorf("interval end %g refused: %v", d, err)
		}
	}
	for _, d := range []float64{math.Nextafter(dLo, 0), math.Nextafter(dHi, 1), -200e-12, math.NaN()} {
		if _, err := tab.Values(d); err == nil {
			t.Errorf("delay %g outside [%g, %g] accepted", d, dLo, dHi)
		}
	}
	forbidden := band.T() / float64(band.KPlus())
	_, want := NewKernel(band, forbidden)
	edge := 0.999 * band.T() / 2
	wide := costTable(t, tmpl, ts, 1e-12, edge)
	if _, err := wide.Eval(forbidden); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("forbidden delay: Eval error %v, NewKernel error %v", err, want)
	}
	r, err := NewReconstructor(band, edge, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values(t, wide, edge) {
		if at := r.At(ts[i]); !fusedClose(v, at) {
			t.Fatalf("D = %g, t = %g: series %.17g vs At %.17g", edge, ts[i], v, at)
		}
	}
	lim := 0.4999 * band.T()
	for _, iv := range [][2]float64{{dHi, dLo}, {math.NaN(), dHi}, {dLo, math.NaN()}, {-lim, dHi}, {dLo, lim}, {dLo, band.T()}} {
		if _, err := tmpl.CostTable(ts, iv[0], iv[1]); err == nil {
			t.Errorf("interval [%g, %g] accepted", iv[0], iv[1])
		}
	}
}

// TestSeriesDegree pins the degrees the truncation bound picks: 5 for
// both of the paper's rates over Algorithm 1's search interval, a constant
// over a single delay, and more terms for a wider interval or a stronger
// taper.
func TestSeriesDegree(t *testing.T) {
	m := 1 / (23 * 90e6) // the paper's searchable-delay limit
	for _, tc := range []struct {
		band Band
		opt  Options
		rad  float64
		deg  int
	}{
		{Band{FLow: 955e6, B: 90e6}, Options{}, 0.998 * m / 2, 5},
		{Band{FLow: 977.5e6, B: 45e6}, Options{}, 0.998 * m / 2, 5},
		{Band{FLow: 955e6, B: 90e6}, Options{}, 0, 0},
		{Band{FLow: 955e6, B: 90e6}, Options{}, 2e-9, 9},
		{Band{FLow: 955e6, B: 90e6}, Options{HalfTaps: 4, KaiserBeta: 12}, 0.998 * m / 2, 6},
	} {
		ch0, ch1 := toneCapture(tc.band, 180e-12, 80)
		r, err := NewReconstructor(tc.band, tc.band.OptimalD(), 0, ch0, ch1, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		deg, err := r.seriesDegree(tc.rad)
		if err != nil || deg != tc.deg {
			t.Errorf("band %+v opt %+v half-width %g: degree %d (%v), want %d", tc.band, tc.opt, tc.rad, deg, err, tc.deg)
		}
	}
}

// costFusedSerial is CostFused as one instant per pass: the order of
// operations every value and the partial must keep.
func costFusedSerial(eB, eB1 *CostEval, lo, hi int) float64 {
	var bufB, bufB1 seriesBasis
	bB, bB1 := eB.basis(&bufB), eB1.basis(&bufB1)
	acc := 0.0
	for i := lo; i < hi; i++ {
		d := eB.at(i, bB) - eB1.at(i, bB1)
		acc += d * d
	}
	return acc
}

// TestCostFusedPairsMatchPerInstant: CostFused, which folds instants in
// pairs, is bit-equal to the one-instant-per-pass loop on 19,000 chunks of
// random bounds (odd tails and empty chunks included), over tables with
// out-of-capture rows (cnt = 0), noisy captures, and both equal series
// degrees (the paired path) and unequal ones (the per-instant path).
func TestCostFusedPairsMatchPerInstant(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	band1 := Band{FLow: 977.5e6, B: 45e6}
	rng := rand.New(rand.NewSource(19))
	noisy := func(b Band, n int) *Reconstructor {
		ch0, ch1 := toneCapture(b, 180e-12, n)
		for i := range ch0 {
			ch0[i] += 0.1 * (2*rng.Float64() - 1)
			ch1[i] += 0.1 * (2*rng.Float64() - 1)
		}
		r, err := NewReconstructor(b, 180e-12, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rB, rB1 := noisy(band, 220), noisy(band1, 130)
	lo0, hi0 := rB.ValidRange()
	lo1, hi1 := rB1.ValidRange()
	lo, hi := math.Max(lo0, lo1), math.Min(hi0, hi1)
	ts := make([]float64, 151)
	for i := range ts {
		ts[i] = lo + (hi-lo)*rng.Float64()
		if rng.Intn(10) == 0 {
			ts[i] = -1e-6 // both spans miss their captures
		}
	}
	tB := costTable(t, rB, ts, 100e-12, 300e-12)
	checked, paired := 0, 0
	for _, dHi1 := range []float64{300e-12, 580e-12} { // degrees 4 and 5 against rate B's 5
		tB1 := costTable(t, rB1, ts, 100e-12, dHi1)
		for k := 0; k < 10; k++ {
			d := 100e-12 + 200e-12*rng.Float64()
			eB, eB1 := eval(t, tB, d), eval(t, tB1, d)
			if eB.tab.deg == eB1.tab.deg {
				paired++
			}
			for range 950 {
				a := rng.Intn(len(ts) + 1)
				b := a + rng.Intn(len(ts)+1-a)
				got, want := CostFused(eB, eB1, a, b), costFusedSerial(eB, eB1, a, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("d=%g [%d, %d): paired %.17g, per instant %.17g", d, a, b, got, want)
				}
				checked++
			}
		}
	}
	if checked != 19000 || paired != 10 {
		t.Fatalf("%d chunks checked, %d evaluations on the paired path", checked, paired)
	}
}
