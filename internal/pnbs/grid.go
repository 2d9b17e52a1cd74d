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
// The grid path feeds tolerance-checked spectral measurements. Its rows
// take each tap's w(dt)·S(dt) from Kernel.S, as At does, so a grid instant
// agrees with At to reassociated rounding (~1e-12 relative).
//
// An instant's tap centre is At's, Reconstructor.centre. Its tie rule puts
// an instant within 1e-9·T of a half sample — phase 2 at 4x oversampling
// sits on one — on the upper centre whatever the float noise of t, so
// every instant of a phase has the phase's centre, advanced one sample per
// period, and each phase tabulates one row of 2h+1 taps. Only instants
// whose tap span is clamped at the capture edges fall back to At.
//
// EnvelopeInto (envelope.go) composes these tables with the mixer and the
// decimation lowpass; EnvelopeGridInto followed by Decimate is its oracle.

// gridPrep holds the fused per-phase coefficient tables for one (t0, fs)
// uniform grid at the reconstructor's delay.
type gridPrep struct {
	over int
	// lo[p] is the first tap index of phase p, centre(t_p) − h; instant
	// i = q*over + p shifts it by q.
	lo []int
	// a0/a1 are the fused w(dt) S(dt) coefficients for the prompt and
	// delayed channels over the 2h+1 taps from lo[p], phase-major.
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
		over: over,
		lo:   make([]int, over),
		a0:   make([]float64, over*nt),
		a1:   make([]float64, over*nt),
	}
	for p := 0; p < over; p++ {
		t := t0 + float64(p)/fs
		nLo := r.centre(t) - h
		g.lo[p] = nLo
		for j := 0; j < nt; j++ {
			tn := r.t0 + float64(nLo+j)*r.tStep
			dt0 := t - tn
			dt1 := tn + d - t
			if w := r.window(dt0); w != 0 {
				g.a0[p*nt+j] = w * k.S(dt0)
			}
			if w := r.window(dt1); w != 0 {
				g.a1[p*nt+j] = w * k.S(dt1)
			}
		}
	}
	return g
}

// regular reports whether grid instant i (t = t0 + i/fs) takes its phase's
// row: its tap span is not clamped at the capture edges and its centre is
// its phase's, advanced one sample per period. nLo is then the span's
// first capture index.
func (g *gridPrep) regular(r *Reconstructor, i int, t float64) (nLo int, ok bool) {
	nLo, nHi := r.span(t)
	return nLo, nLo == g.lo[i%g.over]+i/g.over && nHi-nLo == 2*r.opt.HalfTaps
}

// at evaluates grid instant i (t = t0 + i/fs) through the phase tables,
// falling back to At where the instant is not regular.
func (g *gridPrep) at(r *Reconstructor, i int, t float64) float64 {
	nLo, ok := g.regular(r, i, t)
	if !ok {
		return r.At(t)
	}
	nt := 2*r.opt.HalfTaps + 1
	p := i % g.over
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

// gridMix is grid instant i of EnvelopeGridInto: the reconstruction at
// t = t0 + i/fs, from the phase tables when g is not nil and from At
// otherwise, mixed down around fc.
func (r *Reconstructor) gridMix(g *gridPrep, fc, t0, fs float64, i int) complex128 {
	t := t0 + float64(i)/fs
	var v float64
	if g != nil {
		v = g.at(r, i, t)
	} else {
		v = r.At(t)
	}
	s, c := math.Sincos(2 * math.Pi * fc * t)
	return complex(2*v*c, -2*v*s)
}

// EnvelopeGridInto evaluates the complex envelope around fc on the uniform
// grid t_i = t0 + i/fs for i < len(out), by instantaneous analytic mixing
// of the reconstruction: out[i] = 2·x(t_i)·exp(-i2π·fc·t_i). The caller
// lowpasses or decimates the result (the 2fc image is attenuated by the
// subsequent PSD windowing or filtering). x comes from the fused per-phase
// tables when fs is an integer multiple of the capture rate and from At
// otherwise; the instants fan out over the par pool in fixed-size chunks,
// each instant computed alone, so out is identical at any worker count.
// Each call builds its own tables — over·(2h+1) coefficient pairs, small
// next to the grid — so the reconstructor holds no cache. Followed by
// dsp.DecimationLowpass(over).Decimate, it is the oracle of EnvelopeInto.
func (r *Reconstructor) EnvelopeGridInto(fc, t0, fs float64, out []complex128) {
	g := r.buildGridPrep(t0, fs)
	par.ForChunks(len(out), gridChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = r.gridMix(g, fc, t0, fs, i)
		}
	})
}

// gridChunk is the number of grid instants one par task computes. An
// instant costs ~150 ns, so claiming them one at a time would spend a
// sizeable share of the stage on the pool's atomic counter.
const gridChunk = 128
