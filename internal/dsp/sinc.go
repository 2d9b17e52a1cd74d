package dsp

import "math"

// Sinc returns the normalised sinc function sin(pi x)/(pi x), with
// Sinc(0) = 1. Near zero a Taylor expansion avoids catastrophic cancellation.
func Sinc(x float64) float64 {
	ax := math.Abs(x)
	if ax < 1e-6 {
		px := math.Pi * x
		return 1 - px*px/6
	}
	px := math.Pi * x
	return math.Sin(px) / px
}
