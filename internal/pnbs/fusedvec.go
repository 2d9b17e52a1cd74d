package pnbs

import "math"

// This file routes the prompt-channel fold of CostTable to its AVX2
// encoding (fused_amd64.s) in groups of four rows, one row per lane. Each
// lane runs the IEEE operation sequence of the Go loop for its row, so the
// results are bit-identical and the Go loop stays the portable path and
// the oracle. A group qualifies when all four rows span the full 2h+1
// taps, no tap lies within taylorGuard of dt = 0 (the Go loop's
// nearSample branch, which the vector code does not encode), and the
// window is a Kaiser taper. Everything else runs the Go loop. The encoding evaluates
// the taper as windowLUT.at does, the Horner cubic on windowLUT.coef.

// useAVX2 is fixed at start-up by CPU capability: AVX2 with the YMM state
// enabled by the OS. Tests clear it to run the Go loop they compare
// against.
var useAVX2 = cpuHasAVX2()

// taylorGuard is the distance from dt = 0 inside which a group stays on the
// Go loop: costRowFold switches to nearSample within fusedTaylorEps.
// Repeated subtraction drifts a tap's dt by ~1e-20 s from dt − j·T over a
// span, far inside the margin.
const taylorGuard = 2e-12

// clearOfTaylor reports whether every tap offset dt + j·step, j in [0, n),
// is finite and at least taylorGuard away from 0; inv is 1/step. Only the
// tap nearest to 0 can be closer, and the margin absorbs the rounding of
// locating it.
func clearOfTaylor(dt, step, inv float64, n int) bool {
	j := max(0, min(math.Floor(0.5-dt*inv), float64(n-1)))
	return math.Abs(dt+j*step) >= taylorGuard && !math.IsInf(dt, 0)
}

// rowLanes is the argument block of costRows4: four rows of one table.
type rowLanes struct {
	dt0                                 [4]float64  // first prompt-channel offset per lane
	ch0                                 [4]*float64 // &ch0[nLo] per lane
	out                                 [4][4]float64
	coef                                *float64
	winScale, lutInv, tStep, a0, b0, a1 float64
	n                                   int
}

// costRowsVectorOK reports whether r's tables may use costRows4: AVX2, a
// Kaiser taper, and rates whose products with any full-span tap offset
// (|dt0| <= (h+1)·T, and >= taylorGuard in a qualifying group) are
// non-zero and inside the vector Sincos' |x| < 2^29.
func (r *Reconstructor) costRowsVectorOK() bool {
	k := r.kern
	lo, hi := min(k.a0, k.b0, k.a1), max(k.a0, k.b0, k.a1)
	return useAVX2 && r.win != nil &&
		lo*(taylorGuard/2) > 0 && hi*float64(r.opt.HalfTaps+1)*r.tStep < 1<<28
}

// costRowsVector folds the four rows g of instants ts through costRows4,
// reporting false (g untouched) when the group does not qualify.
func (r *Reconstructor) costRowsVector(g []fusedRow, ts []float64) bool {
	k := r.kern
	span := int32(2*r.opt.HalfTaps + 1)
	inv := 1 / r.tStep
	l := rowLanes{coef: &r.win.coef[0], winScale: r.winScale, lutInv: r.win.inv,
		tStep: r.tStep, a0: k.a0, b0: k.b0, a1: k.a1, n: int(span)}
	for j := range g {
		row := &g[j]
		if row.cnt != span {
			return false
		}
		dt0 := ts[j] - r.t0 - float64(row.nLo)*r.tStep
		if !clearOfTaylor(-dt0, r.tStep, inv, int(span)) {
			return false
		}
		l.dt0[j] = dt0
		l.ch0[j] = &r.ch0[row.nLo]
	}
	costRows4(&l)
	for j := range g {
		g[j].pc0, g[j].ps0, g[j].pc1, g[j].ps1 = l.out[0][j], l.out[1][j], l.out[2][j], l.out[3][j]
	}
	return true
}
