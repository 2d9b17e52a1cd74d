package pnbs

import (
	"math"

	"repro/internal/par"
)

// This file implements the uniform-grid evaluation path of the measure
// stage. The BIST's spectral instruments (mask PSD, EVM, IRR) all evaluate
// the reconstruction on grids t_i = t0 + i/fs with fs an integer multiple
// of the capture rate: consecutive instants advance the tap window by
// exactly one capture sample every `over` points, so the tap geometry —
// and with the delay fixed after estimation, the entire per-tap factor
// w(dt) S(dt) — repeats with period `over`. gridPrep folds window and
// kernel into one fused coefficient per tap per phase; a grid instant then
// costs a single dot product of the 2h+1 coefficient pairs against the
// capture, with no window, kernel, or trigonometric work in the loop.
//
// The grid path feeds tolerance-checked spectral measurements, so it
// evaluates the kernel directly through Kernel.S — the atReference form —
// and agrees with At to reassociated rounding (~1e-12 relative).
// Instants whose tap span is clamped at the capture edges, or that do not
// land on the expected uniform pattern, fall back to At per instant.

// gridPrep holds the fused per-phase coefficient tables for one (t0, fs)
// uniform grid at the reconstructor's delay.
type gridPrep struct {
	over int
	// n0Base[p] is the tap-center capture index of grid instant p; instant
	// i = q*over + p has center n0Base[p] + q.
	n0Base []int
	// a0/a1 are the fused w(dt) S(dt) coefficients for the prompt and
	// delayed channels, phase-major with stride 2h+1.
	a0, a1 []float64
}

// buildGridPrep constructs the per-phase tables, or returns nil when fs is
// not (numerically) an integer multiple of the capture rate — the caller
// then evaluates every instant through At.
func (r *Reconstructor) buildGridPrep(t0, fs float64) *gridPrep {
	over := int(math.Round(fs * r.tStep))
	if over < 1 || math.Abs(fs*r.tStep-float64(over)) > 1e-9*float64(over) {
		return nil
	}
	k := r.kern
	h := r.opt.HalfTaps
	nt := 2*h + 1
	d := k.D()
	g := &gridPrep{
		over:   over,
		n0Base: make([]int, over),
		a0:     make([]float64, over*nt),
		a1:     make([]float64, over*nt),
	}
	for p := 0; p < over; p++ {
		t := t0 + float64(p)/fs
		n0 := int(math.Round((t - r.t0) / r.tStep))
		g.n0Base[p] = n0
		nLo := n0 - h
		dt0 := t - r.t0 - float64(nLo)*r.tStep
		dt1 := r.t0 + float64(nLo)*r.tStep + d - t
		for j := 0; j < nt; j++ {
			if w := r.window(dt0); w != 0 {
				g.a0[p*nt+j] = w * k.S(dt0)
			}
			if w := r.window(dt1); w != 0 {
				g.a1[p*nt+j] = w * k.S(dt1)
			}
			dt0 -= r.tStep
			dt1 += r.tStep
		}
	}
	return g
}

// at evaluates grid instant i (t = t0 + i/fs) through the phase tables,
// falling back to the general path for clamped or off-pattern instants.
func (g *gridPrep) at(r *Reconstructor, i int, t float64) float64 {
	p := i % g.over
	n0 := g.n0Base[p] + i/g.over
	h := r.opt.HalfTaps
	nt := 2*h + 1
	nLo := n0 - h
	if nLo < 0 || nLo+nt > len(r.ch0) {
		return r.At(t) // clamped tap span at the capture edges
	}
	if int(math.Round((t-r.t0)/r.tStep)) != n0 {
		return r.At(t) // instant off the assumed uniform pattern
	}
	a0 := g.a0[p*nt:][:nt]
	a1 := g.a1[p*nt:][:nt]
	ch0 := r.ch0[nLo:][:nt]
	ch1 := r.ch1[nLo:][:nt]
	acc := 0.0
	for j := range a0 {
		acc += a0[j]*ch0[j] + a1[j]*ch1[j]
	}
	return acc
}

// EnvelopeGridInto evaluates the complex envelope around fc on the uniform
// grid t_i = t0 + i/fs for i < len(out), by instantaneous analytic mixing
// of the reconstruction: out[i] = 2·x(t_i)·exp(-i2π·fc·t_i). The caller
// lowpasses or decimates the result (the 2fc image is attenuated by the
// subsequent PSD windowing or filtering). x comes from the fused per-phase
// tables when fs is an integer multiple of the capture rate and from At
// otherwise; the instants fan out over the par pool. Each call builds its
// own tables — over·(2h+1) coefficient pairs, small next to the grid — so
// the reconstructor holds no cache.
func (r *Reconstructor) EnvelopeGridInto(fc, t0, fs float64, out []complex128) {
	g := r.buildGridPrep(t0, fs)
	par.For(len(out), func(i int) {
		t := t0 + float64(i)/fs
		var v float64
		if g != nil {
			v = g.at(r, i, t)
		} else {
			v = r.At(t)
		}
		s, c := math.Sincos(2 * math.Pi * fc * t)
		out[i] = complex(2*v*c, -2*v*s)
	})
}
