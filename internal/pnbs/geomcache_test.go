package pnbs

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// oracleTable builds r's cost table over ts row by row with the
// single-pass oracle seriesFit.rowReference.
func oracleTable(t testing.TB, r *Reconstructor, ts []float64, dLo, dHi float64) *CostTable {
	t.Helper()
	tab := &CostTable{r: r, rows: make([]fusedRow, len(ts)),
		dLo: dLo, dHi: dHi, mid: dLo + (dHi-dLo)/2, rad: (dHi - dLo) / 2}
	deg, err := r.seriesDegree(tab.rad)
	if err != nil {
		t.Fatal(err)
	}
	tab.deg = deg
	fit := r.newSeriesFit(tab)
	stride := 2 * (deg + 1)
	tab.ser = make([]float64, len(ts)*stride)
	for i, tv := range ts {
		fit.rowReference(&tab.rows[i], tv, tab.ser[i*stride:][:stride])
	}
	return tab
}

// buildWith builds r's cost table over ts through the geometry cache c
// and checks it bit for bit against the oracle.
func buildWith(t testing.TB, c *geomCache, r *Reconstructor, ts []float64, dLo, dHi float64) geomUse {
	t.Helper()
	tab, use, err := r.costTable(ts, dLo, dHi, c)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTable(t, r, ts, dLo, dHi)
	if len(tab.rows) != len(want.rows) || !sameTable(tab, want) {
		t.Fatalf("table (cache use %d) differs from the single-pass oracle", use)
	}
	return use
}

// geomCase is one random table geometry: a band, a capture, a filter and
// instants that reach every branch of the geometry pass.
type geomCase struct {
	band     Band
	d, t0    float64
	n        int
	opt      Options
	ts       []float64
	dLo, dHi float64
}

func randomGeomCase(rng *rand.Rand) geomCase {
	band, d := randomBand(rng) // integer-positioned one time in four
	h := 4 + rng.Intn(28)
	c := geomCase{band: band, d: d, t0: 1e-7 * rng.Float64(), n: 2*h + 2 + rng.Intn(120),
		opt: Options{HalfTaps: h, KaiserBeta: randomBeta(rng)}} // rectangular one time in five
	tStep := band.T()
	c.ts = make([]float64, 1+rng.Intn(70))
	for i := range c.ts {
		switch u := rng.Float64(); {
		case u < 0.5:
			c.ts[i] = c.t0 + float64(h)*tStep + float64(c.n-2*h-1)*tStep*rng.Float64()
		case u < 0.6: // on a sample point
			c.ts[i] = c.t0 + float64(rng.Intn(c.n))*tStep
		case u < 0.7: // within T/8 of a delayed sample
			c.ts[i] = c.t0 + float64(rng.Intn(c.n))*tStep + d + tStep/8*(2*rng.Float64()-1)
		case u < 0.75: // a span that misses the capture
			c.ts[i] = c.t0 - float64(h+2+rng.Intn(9))*tStep
		default: // anywhere: edge-clamped spans
			c.ts[i] = c.t0 + (float64(c.n)+6)*tStep*rng.Float64() - 3*tStep
		}
	}
	q := tStep / 4
	c.dLo, c.dHi = -q*rng.Float64(), q*rng.Float64()
	return c
}

func (c geomCase) reconstructor(t testing.TB, rng *rand.Rand) *Reconstructor {
	t.Helper()
	ch0 := make([]float64, c.n)
	ch1 := make([]float64, c.n)
	for i := range ch0 {
		ch0[i] = 2*rng.Float64() - 1
		ch1[i] = 2*rng.Float64() - 1
	}
	r, err := NewReconstructor(c.band, c.d, c.t0, ch0, ch1, c.opt)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	return r
}

// TestGeometryCacheWarmMatchesCold: over random geometries (integer-
// positioned bands, rectangular windows, edge-clamped and out-of-capture
// rows, instants on and near sample points), a table built cold, built
// while its geometry is admitted, and folded over the cached geometry with
// other samples are all bit-identical to the single-pass oracle. A table
// that differs from a cached one in any single key field is never served
// the cached geometry.
func TestGeometryCacheWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s0Zero, rect, near, clamped, outside int
	for trial := 0; trial < 60; trial++ {
		var c geomCache
		gc := randomGeomCase(rng)
		for i, want := range []geomUse{geomMiss, geomAdmit, geomHit, geomHit} {
			if use := buildWith(t, &c, gc.reconstructor(t, rng), gc.ts, gc.dLo, gc.dHi); use != want {
				t.Fatalf("trial %d build %d: cache use %d, want %d", trial, i, use, want)
			}
		}
		if gc.band.IntegerPositioned() {
			s0Zero++
		}
		if gc.opt.KaiserBeta < 0 {
			rect++
		}
		for _, geo := range c.ents {
			for _, g := range geo.rows {
				near += int(g.nNear)
				switch {
				case g.cnt == 0:
					outside++
				case int(g.cnt) < 2*gc.opt.HalfTaps+1:
					clamped++
				}
			}
		}
		variants := map[string]func(*geomCase){
			"fLow":    func(v *geomCase) { v.band.FLow = math.Nextafter(v.band.FLow, math.Inf(1)) },
			"B":       func(v *geomCase) { v.band.B *= 1 + 1e-12 },
			"t0":      func(v *geomCase) { v.t0 = math.Nextafter(v.t0, math.Inf(1)) },
			"len":     func(v *geomCase) { v.n++ },
			"taps":    func(v *geomCase) { v.opt.HalfTaps-- },
			"beta":    func(v *geomCase) { v.opt.KaiserBeta = -v.opt.KaiserBeta },
			"dLo":     func(v *geomCase) { v.dLo = math.Nextafter(v.dLo, math.Inf(-1)) },
			"dHi":     func(v *geomCase) { v.dHi = math.Nextafter(v.dHi, math.Inf(1)) },
			"instant": func(v *geomCase) { v.ts[len(v.ts)-1] = math.Nextafter(v.ts[len(v.ts)-1], 0) },
			"count":   func(v *geomCase) { v.ts = append(v.ts, v.ts[0]) },
		}
		for name, vary := range variants {
			v := gc
			v.ts = append([]float64(nil), gc.ts...)
			vary(&v)
			if use := buildWith(t, &c, v.reconstructor(t, rng), v.ts, v.dLo, v.dHi); use == geomHit {
				t.Fatalf("trial %d: changing %s still hit the cached geometry", trial, name)
			}
		}
	}
	if s0Zero == 0 || rect == 0 || near == 0 || clamped == 0 || outside == 0 {
		t.Fatalf("cached cases missed a branch: %d integer-positioned, %d rectangular, %d near terms, %d clamped and %d outside rows",
			s0Zero, rect, near, clamped, outside)
	}
}

// TestGeometryCacheDegreeKey: two intervals of one width give one series
// degree but other nodes; two widths give other degrees. Neither is served
// the other's geometry.
func TestGeometryCacheDegreeKey(t *testing.T) {
	_, _, _, tmpl, ts := delayTemplate(t)
	var c geomCache
	for range 2 {
		buildWith(t, &c, tmpl, ts, 100e-12, 300e-12)
	}
	for _, iv := range [][2]float64{{120e-12, 320e-12}, {100e-12, 1e-9}, {100e-12, 100e-12}} {
		if use := buildWith(t, &c, tmpl, ts, iv[0], iv[1]); use == geomHit {
			t.Fatalf("interval %v hit the cached geometry of [100 ps, 300 ps]", iv)
		}
	}
	if use := buildWith(t, &c, tmpl, ts, 100e-12, 300e-12); use != geomHit {
		t.Fatalf("cached interval: cache use %d", use)
	}
}

// TestGeometryCacheConcurrentBuilders: builders of one key racing through
// its admission all get the oracle's table, and the cache keeps one entry.
func TestGeometryCacheConcurrentBuilders(t *testing.T) {
	_, _, _, tmpl, ts := delayTemplate(t)
	want := oracleTable(t, tmpl, ts, 100e-12, 300e-12)
	var c geomCache
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				tab, _, err := tmpl.costTable(ts, 100e-12, 300e-12, &c)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sameTable(tab, want) {
					errs <- "table differs from the oracle"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if len(c.ents) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(c.ents))
	}
}

// TestGeometryCacheBudget: the cache never exceeds its budget; a
// candidate that needs a live entry evicted is refused, and an idle entry
// makes room.
func TestGeometryCacheBudget(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	ch0, ch1 := toneCapture(band, 180e-12, 400)
	r, err := NewReconstructor(band, 180e-12, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.ValidRange()
	rng := rand.New(rand.NewSource(8))
	instants := func() []float64 {
		ts := make([]float64, 60) // ~0.2 MiB a table: several fit the budget
		for i := range ts {
			ts[i] = lo + (hi-lo)*rng.Float64()
		}
		return ts
	}
	var c geomCache
	var sets [][]float64
	for len(c.ents) == len(sets) && len(sets) < 100 {
		ts := instants()
		sets = append(sets, ts)
		for range 2 {
			buildWith(t, &c, r, ts, 100e-12, 300e-12)
		}
		if c.bytes > geomCacheBytes {
			t.Fatalf("cache holds %d bytes, budget %d", c.bytes, geomCacheBytes)
		}
	}
	// The last set was refused: every entry is live.
	if len(sets) < 4 {
		t.Fatalf("the budget held %d tables of 60 instants", len(sets)-1)
	}
	if use := buildWith(t, &c, r, sets[len(sets)-1], 100e-12, 300e-12); use == geomHit {
		t.Fatal("refused candidate was served from the cache")
	}
	// Keep all but the first entry live while the lookups age it.
	var first *tableGeom
	for _, e := range c.ents {
		if sameBits(e.ts, sets[0]) {
			first = e
		}
	}
	for c.tick-first.last <= geomIdleLookups {
		for _, ts := range sets[1 : len(sets)-1] {
			buildWith(t, &c, r, ts, 100e-12, 300e-12)
		}
	}
	if use := buildWith(t, &c, r, sets[len(sets)-1], 100e-12, 300e-12); use != geomAdmit {
		t.Fatalf("idle entry did not make room: cache use %d", use)
	}
	if use := buildWith(t, &c, r, sets[0], 100e-12, 300e-12); use == geomHit {
		t.Fatal("evicted entry still served")
	}
	if c.bytes > geomCacheBytes {
		t.Fatalf("cache holds %d bytes, budget %d", c.bytes, geomCacheBytes)
	}
}

// TestGeometryCacheMetrics: the process-wide cache counts its traffic in
// pnbs.costtable.geometry.{hits,misses,admitted} and its size in the
// .bytes gauge, all exposed in the Prometheus text.
func TestGeometryCacheMetrics(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	_, _, _, tmpl, ts := delayTemplate(t)
	ts = append([]float64(nil), ts...)
	ts[0] = math.Nextafter(ts[0], 0) // a key no other test builds
	before := obs.Default().Snapshot()
	for range 4 {
		costTable(t, tmpl, ts, 100e-12, 300e-12)
	}
	after := obs.Default().Snapshot()
	for name, want := range map[string]int64{"hits": 2, "misses": 2, "admitted": 1} {
		key := "pnbs.costtable.geometry." + name
		if got := after.Counters[key] - before.Counters[key]; got != want {
			t.Errorf("%s moved by %d, want %d", key, got, want)
		}
	}
	if after.Gauges["pnbs.costtable.geometry.bytes"].Value <= 0 {
		t.Errorf("bytes gauge %+v after an admission", after.Gauges["pnbs.costtable.geometry.bytes"])
	}
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"hits", "misses", "admitted", "bytes"} {
		if !strings.Contains(buf.String(), "\nbist_pnbs_costtable_geometry_"+fam+" ") {
			t.Errorf("/metrics.prom has no bist_pnbs_costtable_geometry_%s sample", fam)
		}
	}
}
