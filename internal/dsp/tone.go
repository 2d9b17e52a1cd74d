package dsp

import "math"

// TonePhasor extracts the complex amplitude of a known tone at normalised
// frequency nu from x: the returned phasor p satisfies
// x[n] ~ Re{ p * exp(i 2 pi nu n) } for a real tone. A window may be applied
// to reduce leakage; pass nil for rectangular. win must be nil or have the
// same length as x.
func TonePhasor(x []float64, nu float64, win []float64) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	var acc complex128
	var gain float64
	for i, v := range x {
		w := 1.0
		if win != nil {
			w = win[i]
		}
		phi := -2 * math.Pi * nu * float64(i)
		s, c := math.Sincos(phi)
		acc += complex(v*w*c, v*w*s)
		gain += w
	}
	// For a real tone, the analytic component carries half the amplitude.
	return acc * complex(2/gain, 0)
}
