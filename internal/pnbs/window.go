package pnbs

import (
	"math"
	"sync"

	"repro/internal/dsp"
)

// The Kaiser taper applied to the truncated interpolation series is
// independent of the candidate delay D-hat: w(x) = I0(beta sqrt(1-x^2)) /
// I0(beta) depends only on beta and the normalised tap offset x. The LMS
// hot loop, however, evaluates it for every tap of every instant of every
// candidate delay, so the seed implementation spent a BesselI0 call (plus a
// square root) per tap per instant. windowLUT tabulates the taper once per
// beta and interpolates; the table is shared process-wide across all
// reconstructors and all candidate delays.
//
// The taper is tabulated in the y = x^2 domain, where it is an entire
// function of y (I0's power series contains only even powers of its
// argument, so w = sum_k (beta^2 (1-y)/4)^k / (k!)^2 / I0(beta)); fitting
// in y avoids the square-root singularity of d/dx sqrt(1-x^2) at the band
// edge, so a cubic per cell reaches ~1e-14 absolute accuracy with a table
// that fits in L1.
type windowLUT struct {
	inv float64 // lutSize, as a float: 1/step
	// coef[4i:4i+4] are cell i's cubic in the cell fraction fr in [0, 1),
	// w = c0 + fr(c1 + fr(c2 + fr c3)): one cache line per lookup.
	coef []float64
}

// lutSize is the number of cells spanning y in [0, 1]: 2048 cells of 32
// bytes, 64 KiB per beta.
const lutSize = 1 << 11

// newWindowLUT fits each cell at four Chebyshev nodes (dsp.FitCells, in
// s = 2 fr - 1) and rewrites the cubic in fr, the variable at reads.
func newWindowLUT(beta float64) *windowLUT {
	den := dsp.BesselI0(beta)
	coef := dsp.FitCells(lutSize, 3, func(c int, s float64) float64 {
		y := (float64(c) + (s+1)/2) / lutSize
		return dsp.BesselI0(beta*math.Sqrt(1-y)) / den
	})
	for i := 0; i < len(coef); i += 4 {
		a := coef[i : i+4 : i+4]
		a[0], a[1], a[2], a[3] = a[0]-a[1]+a[2]-a[3], 2*a[1]-4*a[2]+6*a[3], 4*a[2]-12*a[3], 8*a[3]
	}
	return &windowLUT{inv: float64(lutSize), coef: coef}
}

// at interpolates the taper at y = x^2, 0 <= y < 1, on the cell's
// monomial cubic. This is the hottest leaf of the LMS loop (one call per
// tap per instant per candidate delay); it is small enough to inline.
func (l *windowLUT) at(y float64) float64 {
	p := y * l.inv
	i := int(p)
	if i > lutSize-1 {
		i = lutSize - 1
	}
	fr := p - float64(i)
	c := l.coef[i*4 : i*4+4 : i*4+4]
	return ((c[3]*fr+c[2])*fr+c[1])*fr + c[0]
}

// lutCache shares one table per beta across every reconstructor in the
// process (the taper does not depend on the band, the delay, or the tap
// count — only the x normalisation does, and that stays in window()).
var lutCache sync.Map // float64 beta -> *windowLUT

func lutFor(beta float64) *windowLUT {
	if v, ok := lutCache.Load(beta); ok {
		return v.(*windowLUT)
	}
	l := newWindowLUT(beta)
	v, _ := lutCache.LoadOrStore(beta, l)
	return v.(*windowLUT)
}
