package rf

import (
	"math"
	"math/cmplx"

	"repro/internal/sig"
)

// IQImbalance models the quadrature modulator impairments of a homodyne
// transmitter: gain mismatch g (linear I/Q amplitude ratio), quadrature
// phase error phi (radians) and additive LO leakage. In the baseband
// equivalent these produce the well-known image term:
//
//	y = alpha x + beta conj(x) + leak
//	alpha = (1 + g e^{+i phi}) / 2,  beta = (1 - g e^{-i phi}) / 2.
//
// A perfect modulator has g = 1, phi = 0, leak = 0 giving alpha = 1, beta = 0.
type IQImbalance struct {
	GainRatio  float64    // I/Q gain ratio g, 1 = matched
	PhaseError float64    // quadrature error in radians, 0 = perfect
	LOLeakage  complex128 // carrier feedthrough added at baseband
}

// Alpha returns the direct-path coefficient.
func (q *IQImbalance) Alpha() complex128 {
	s, c := math.Sincos(q.PhaseError)
	return (1 + complex(q.GainRatio*c, q.GainRatio*s)) / 2
}

// Beta returns the image-path coefficient.
func (q *IQImbalance) Beta() complex128 {
	s, c := math.Sincos(q.PhaseError)
	return (1 - complex(q.GainRatio*c, -q.GainRatio*s)) / 2
}

// Apply transforms one envelope value.
func (q *IQImbalance) Apply(v complex128) complex128 {
	return q.Alpha()*v + q.Beta()*cmplx.Conj(v) + q.LOLeakage
}

// ApplyEnv lifts the impairment to a whole envelope. Coefficients are
// precomputed once.
func (q *IQImbalance) ApplyEnv(env sig.Envelope) sig.Envelope {
	a, b, l := q.Alpha(), q.Beta(), q.LOLeakage
	return sig.EnvelopeFunc(func(t float64) complex128 {
		v := env.At(t)
		return a*v + b*cmplx.Conj(v) + l
	})
}

// ImageRejectionDB returns the image rejection ratio |alpha|^2/|beta|^2 in
// dB; +Inf (represented as 400) for a perfect modulator.
func (q *IQImbalance) ImageRejectionDB() float64 {
	a := cmplx.Abs(q.Alpha())
	b := cmplx.Abs(q.Beta())
	if b == 0 {
		return 400
	}
	return 20 * math.Log10(a/b)
}

// FromImbalanceDB builds an IQImbalance from a gain imbalance in dB and a
// phase error in degrees, the way datasheets specify it.
func FromImbalanceDB(gainDB, phaseDeg float64, leak complex128) *IQImbalance {
	return &IQImbalance{
		GainRatio:  math.Pow(10, gainDB/20),
		PhaseError: phaseDeg * math.Pi / 180,
		LOLeakage:  leak,
	}
}
