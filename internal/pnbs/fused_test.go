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
func fusedClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-9
}

// TestAtBlockFusedMatchesAt bounds the reassociation error of the fused
// path against the per-instant At path over random bands, delays and
// instants — including an integer-positioned band (s0 = 0), instants on
// sample points (the Taylor branch of the contracted tables), and instants
// outside the capture (fused value must be exactly 0, like At).
func TestAtBlockFusedMatchesAt(t *testing.T) {
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
			dst := make([]float64, len(ts))
			r.AtBlockFused(ts, dst)
			for i, tv := range ts {
				at := r.At(tv)
				if i == 0 && (dst[i] != 0 || at != 0) {
					t.Fatalf("band %d: out-of-capture instant: fused %g, At %g", bi, dst[i], at)
				}
				if !fusedClose(dst[i], at) {
					t.Fatalf("band %d trial %d t=%g: AtBlockFused %.17g vs At %.17g",
						bi, trial, tv, dst[i], at)
				}
			}
		}
	}
}

// TestAtBlockFusedPrepSurvivesRetune: the contracted tables are delay
// independent, so a Clone at a new candidate delay must reuse them and evaluate bit-identically to
// a reconstructor freshly built at the new delay (which builds its own
// tables from the same inputs).
func TestAtBlockFusedPrepSurvivesRetune(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	ch0, ch1 := toneCapture(band, 180e-12, 260)
	r, err := NewReconstructor(band, 180e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.ValidRange()
	rng := rand.New(rand.NewSource(5))
	ts := make([]float64, 64)
	for i := range ts {
		ts[i] = lo + (hi-lo)*rng.Float64()
	}
	warm := make([]float64, len(ts))
	r.AtBlockFused(ts, warm) // builds the tables at d = 180 ps
	for _, d := range []float64{120e-12, 240e-12, 180e-12} {
		c, err := r.Clone(d)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(ts))
		c.AtBlockFused(ts, got) // must hit the cached tables
		fresh, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(ts))
		fresh.AtBlockFused(ts, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%g i=%d: cloned fused %.17g != fresh build %.17g", d, i, got[i], want[i])
			}
		}
	}
}

// TestCloneSharesFusedTables pins the amortization mechanism of the pooled
// cost evaluators: clones share the fused-table cache slot, so a table
// built by any family member is visible to all — and a clone evaluates
// bit-identically to a reconstructor freshly built at its delay.
func TestCloneSharesFusedTables(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	ch0, ch1 := toneCapture(band, 180e-12, 260)
	r, err := NewReconstructor(band, 180e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.ValidRange()
	ts := make([]float64, 40)
	for i := range ts {
		ts[i] = lo + (hi-lo)*float64(i)/float64(len(ts)-1)
	}
	r.PrepareFused(ts)
	c, err := r.Clone(240e-12)
	if err != nil {
		t.Fatal(err)
	}
	if c.fused.Load() != r.fused.Load() || c.fused.Load() == nil {
		t.Fatal("clone does not share the fused table cache")
	}
	// Preparation through the clone publishes for the original too.
	other := append([]float64(nil), ts[:20]...)
	c.PrepareFused(other)
	if r.fused.Load() != c.fused.Load() {
		t.Fatal("clone preparation did not publish to the original")
	}
	// The clone is at its own delay, the original keeps its own.
	if c.Kernel().D() != 240e-12 || r.Kernel().D() != 180e-12 {
		t.Fatalf("delays: clone %g, original %g", c.Kernel().D(), r.Kernel().D())
	}
	got := make([]float64, len(ts))
	c.AtBlockFused(ts, got)
	fresh, err := NewReconstructor(band, 240e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(ts))
	fresh.AtBlockFused(ts, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("i=%d: clone %.17g != fresh %.17g", i, got[i], want[i])
		}
	}
	// Clone at a forbidden delay must fail without disturbing the original.
	if _, err := r.Clone(0); err == nil {
		t.Fatal("clone at zero delay did not fail")
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
	whole := CostFused(rB, rB1, ts, 0, len(ts))
	for _, chunk := range []int{1, 7, 16, 32, len(ts)} {
		acc := 0.0
		for c := 0; c < len(ts); c += chunk {
			end := c + chunk
			if end > len(ts) {
				end = len(ts)
			}
			acc += CostFused(rB, rB1, ts, c, end)
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
	build := func(w int) *fusedPrep {
		defer par.SetWorkers(par.SetWorkers(w))
		return r.buildFusedPrep(ts)
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
