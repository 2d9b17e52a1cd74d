package pnbs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// fusedTol checks |a-b| against the reassociation budget: 1e-9 relative
// with a 1e-9 absolute floor (values near a reconstruction zero-crossing
// have no meaningful relative error).
// Kernel exposes the underlying interpolation kernel.
func (r *Reconstructor) Kernel() *Kernel { return r.kern }

func fusedClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-9
}

// TestFusedTableMatchesAt bounds the reassociation error of the fused
// path — a CostTable evaluated per instant at the reconstructor's own
// kernel — against the per-instant At path over random bands, delays and
// instants, including an integer-positioned band (s0 = 0), instants on
// sample points (the Taylor branch of the contracted tables), and instants
// outside the capture (fused value must be exactly 0, like At).
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
			got := r.CostTable(ts).Values(r.Kernel())
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
// template at d1 and evaluated with a kernel at d2 must equal, bit for
// bit, the evaluated table of a reconstructor freshly built at d2. This is
// what lets skew.CostEvaluator build its tables once and evaluate every
// candidate delay against them.
func TestFusedTableDelayIndependent(t *testing.T) {
	band, ch0, ch1, tmpl, ts := delayTemplate(t)
	tab := tmpl.CostTable(ts)
	for _, d := range []float64{120e-12, 240e-12, -250e-12, 180e-12} {
		k, err := NewKernel(band, d)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := tab.Values(k)
		want := fresh.CostTable(ts).Values(fresh.Kernel())
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%g i=%d: template table %.17g != fresh table %.17g", d, i, got[i], want[i])
			}
		}
	}
}

// TestFusedTableRowsSharedAcrossDelays: one CostTable is shared by every candidate
// delay, so its rows must be the same at any delay and per instant: the
// template's rows equal, bit for bit, those of a fresh reconstructor at
// another delay, and a table over a prefix of the instants equals the
// prefix of the full table. Sharing leaves the template at its own delay,
// and a kernel at a forbidden delay is refused.
func TestFusedTableRowsSharedAcrossDelays(t *testing.T) {
	band, ch0, ch1, tmpl, ts := delayTemplate(t)
	tab := tmpl.CostTable(ts)
	fresh, err := NewReconstructor(band, 240e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	freshTab := fresh.CostTable(ts)
	for i := range tab.rows {
		if tab.rows[i] != freshTab.rows[i] {
			t.Fatalf("row %d: template %+v != fresh %+v", i, tab.rows[i], freshTab.rows[i])
		}
	}
	prefix := tmpl.CostTable(ts[:20])
	for i := range prefix.rows {
		if prefix.rows[i] != tab.rows[i] {
			t.Fatalf("row %d: prefix table %+v != full table %+v", i, prefix.rows[i], tab.rows[i])
		}
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
	tB, tB1 := rB.CostTable(ts), rB1.CostTable(ts)
	kB, kB1 := rB.Kernel(), rB1.Kernel()
	whole := CostFused(tB, kB, tB1, kB1, 0, len(ts))
	for _, chunk := range []int{1, 7, 16, 32, len(ts)} {
		acc := 0.0
		for c := 0; c < len(ts); c += chunk {
			end := c + chunk
			if end > len(ts) {
				end = len(ts)
			}
			acc += CostFused(tB, kB, tB1, kB1, c, end)
		}
		// The fold order over chunks differs from the whole-range pass, so
		// compare to reassociation tolerance; per-chunk partials themselves
		// are exact, which the skew worker-invariance tests pin bitwise.
		if !fusedClose(acc, whole) {
			t.Fatalf("chunk=%d: %.17g vs whole %.17g", chunk, acc, whole)
		}
	}
}

// TestFusedPrepWorkerInvariance: the prepared rows are built one instant
// per task over the pool, each with its own serial tap fold, so the tables
// are identical at every pool width — including out-of-capture rows and a
// Taylor-branch instant on a sample point.
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
		return r.CostTable(ts)
	}
	ref := build(1)
	for _, w := range []int{2, 8} {
		p := build(w)
		for i := range ref.rows {
			if p.rows[i] != ref.rows[i] {
				t.Fatalf("workers=%d row %d: %+v != serial %+v", w, i, p.rows[i], ref.rows[i])
			}
		}
	}
}
