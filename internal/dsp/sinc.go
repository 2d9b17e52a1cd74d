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

// DiffCosOverT evaluates (cos(a*t + pa) - cos(b*t + pb)) / t with the t -> 0
// limit handled analytically: d/dt[cos(a t + pa) - cos(b t + pb)] at 0 =
// -a sin(pa) + b sin(pb). This helper underpins the Kohlenberg interpolation
// kernel, whose two terms are exactly of this shape (pa == pb).
//
// Below |t| = 1e-13 the direct difference cancels, so there it takes the
// exact product form -2 sin((a+b)t/2 + pa) sin((a-b)t/2) / t, and below
// 1e-18 the first-order expansion, whose dropped t^2 term is far under an
// ulp there. The kernel always calls with pa == pb: otherwise the constant
// term (cos(pa) - cos(pb))/t of the limit diverges.
func DiffCosOverT(a, pa, b, pb, t float64) float64 {
	switch at := math.Abs(t); {
	case at < 1e-18:
		return -a*math.Sin(pa) + b*math.Sin(pb) +
			t*0.5*(-a*a*math.Cos(pa)+b*b*math.Cos(pb))
	case at < 1e-13:
		return -2 * math.Sin((a+b)/2*t+pa) * math.Sin((a-b)/2*t) / t
	}
	return (math.Cos(a*t+pa) - math.Cos(b*t+pb)) / t
}
