// Package rf implements the behavioural model of the homodyne transmitter
// that the BIST observes (paper Fig. 1): IQ modulator impairments, local
// oscillator phase noise, spurs and leakage, and power-amplifier
// nonlinearities. All blocks operate on the baseband-equivalent complex
// envelope (standard passband behavioural modelling), and the composed
// transmitter exposes the RF output as a continuous-time signal evaluable
// at arbitrary instants.
package rf

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/sig"
)

// PA is a memoryless power-amplifier model acting on the complex envelope.
// Memoryless baseband nonlinearities capture AM/AM and AM/PM conversion,
// the mechanisms behind spectral regrowth at the PA output.
type PA interface {
	// Apply maps an instantaneous input envelope value to the output.
	Apply(v complex128) complex128
	// Describe returns a short human-readable model description.
	Describe() string
}

// LinearPA is an ideal amplifier with a fixed complex gain.
type LinearPA struct {
	Gain complex128
}

// Apply implements PA.
func (p *LinearPA) Apply(v complex128) complex128 { return p.Gain * v }

// Describe implements PA.
func (p *LinearPA) Describe() string { return fmt.Sprintf("linear(gain=%v)", p.Gain) }

// RappPA is the Rapp solid-state PA model: pure AM/AM compression
//
//	|y| = G r / (1 + (G r / Vsat)^(2S))^(1/(2S))
//
// with smoothness S and output saturation Vsat. Phase is preserved.
type RappPA struct {
	Gain       float64 // small-signal gain
	Vsat       float64 // output saturation amplitude
	Smoothness float64 // knee sharpness S (typ. 1..3)
}

// NewRappPA validates and builds a Rapp model.
func NewRappPA(gain, vsat, smoothness float64) (*RappPA, error) {
	if gain <= 0 || vsat <= 0 || smoothness <= 0 {
		return nil, fmt.Errorf("rf: Rapp PA needs positive gain/vsat/smoothness, got %g/%g/%g",
			gain, vsat, smoothness)
	}
	return &RappPA{Gain: gain, Vsat: vsat, Smoothness: smoothness}, nil
}

// Apply implements PA.
func (p *RappPA) Apply(v complex128) complex128 {
	r := cmplx.Abs(v)
	if r == 0 {
		return 0
	}
	g := p.Gain * r
	den := math.Pow(1+math.Pow(g/p.Vsat, 2*p.Smoothness), 1/(2*p.Smoothness))
	return v * complex(p.Gain/den, 0)
}

// Describe implements PA.
func (p *RappPA) Describe() string {
	return fmt.Sprintf("rapp(G=%.3g, Vsat=%.3g, S=%.3g)", p.Gain, p.Vsat, p.Smoothness)
}

// SalehPA is the Saleh travelling-wave-tube model with both AM/AM and AM/PM:
//
//	A(r) = aA r / (1 + bA r^2),  Phi(r) = aP r^2 / (1 + bP r^2).
type SalehPA struct {
	AlphaA, BetaA float64
	AlphaP, BetaP float64
}

// NewSalehPA builds the classic Saleh model; the canonical parameter set
// (2.1587, 1.1517, 4.0033, 9.1040) is used when all arguments are zero.
func NewSalehPA(aA, bA, aP, bP float64) *SalehPA {
	if aA == 0 && bA == 0 && aP == 0 && bP == 0 {
		return &SalehPA{AlphaA: 2.1587, BetaA: 1.1517, AlphaP: 4.0033, BetaP: 9.1040}
	}
	return &SalehPA{AlphaA: aA, BetaA: bA, AlphaP: aP, BetaP: bP}
}

// Apply implements PA.
func (p *SalehPA) Apply(v complex128) complex128 {
	r := cmplx.Abs(v)
	if r == 0 {
		return 0
	}
	amp := p.AlphaA * r / (1 + p.BetaA*r*r)
	phi := p.AlphaP * r * r / (1 + p.BetaP*r*r)
	theta := math.Atan2(imag(v), real(v)) + phi
	s, c := math.Sincos(theta)
	return complex(amp*c, amp*s)
}

// Describe implements PA.
func (p *SalehPA) Describe() string {
	return fmt.Sprintf("saleh(aA=%.3g, bA=%.3g, aP=%.3g, bP=%.3g)",
		p.AlphaA, p.BetaA, p.AlphaP, p.BetaP)
}

// EnvelopePA marks PA models whose output depends on the input history
// (memory effects): they lift whole envelopes instead of single values.
// ApplyPA dispatches on this capability, so a MemoryPolyPA plugged into
// TxConfig.PA exercises its full memory structure.
type EnvelopePA interface {
	PA
	ApplyEnv(env sig.Envelope) sig.Envelope
}

// ApplyPA lifts a PA model to a whole envelope, routing memory models
// through their envelope-level implementation.
func ApplyPA(p PA, env sig.Envelope) sig.Envelope {
	if ep, ok := p.(EnvelopePA); ok {
		return ep.ApplyEnv(env)
	}
	return sig.EnvelopeFunc(func(t float64) complex128 { return p.Apply(env.At(t)) })
}
