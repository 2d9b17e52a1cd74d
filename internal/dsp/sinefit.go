package dsp

import (
	"fmt"
	"math"
)

// SineFit3 performs the IEEE-1057 three-parameter sine fit: given samples
// x[i] taken at times t[i] of a sinusoid with KNOWN frequency f (Hz), it
// finds amplitude A, phase phi and offset C minimising
// sum (x[i] - A cos(2 pi f t[i] + phi) - C)^2.
func SineFit3(t, x []float64, f float64) (amp, phase, offset float64, err error) {
	if len(t) != len(x) {
		return 0, 0, 0, fmt.Errorf("dsp: SineFit3: length mismatch %d vs %d", len(t), len(x))
	}
	if len(t) < 3 {
		return 0, 0, 0, fmt.Errorf("dsp: SineFit3: need >= 3 samples, got %d", len(t))
	}
	// Model x = a cos(w t) + b sin(w t) + c ; normal equations (3x3).
	w := 2 * math.Pi * f
	var scc, scs, sc, sss, ss, n float64
	var xc, xs, xo float64
	for i := range t {
		c := math.Cos(w * t[i])
		s := math.Sin(w * t[i])
		scc += c * c
		scs += c * s
		sc += c
		sss += s * s
		ss += s
		n++
		xc += x[i] * c
		xs += x[i] * s
		xo += x[i]
	}
	a := [][]float64{
		{scc, scs, sc},
		{scs, sss, ss},
		{sc, ss, n},
	}
	b := []float64{xc, xs, xo}
	sol, ok := SolveLinear(a, b)
	if !ok {
		return 0, 0, 0, fmt.Errorf("dsp: SineFit3: singular normal equations (f=%g)", f)
	}
	// a cos + b sin = A cos(wt + phi) with A = hypot(a,b), phi = atan2(-b, a).
	amp = math.Hypot(sol[0], sol[1])
	phase = math.Atan2(-sol[1], sol[0])
	offset = sol[2]
	return amp, phase, offset, nil
}
