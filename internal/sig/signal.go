// Package sig provides the continuous-time signal framework on which the
// PNBS-BIST behavioural simulation is built. Signals and complex envelopes
// are functions evaluable at arbitrary time instants, so picosecond-offset
// nonuniform sampling is exact rather than interpolated from a uniform grid.
// This is the Go substitute for the paper's Matlab behavioural passband
// models, which must "explicitly simulate each carrier cycle".
package sig

import (
	"math"

	"repro/internal/par"
)

// Signal is a real-valued continuous-time waveform.
//
// Concurrency contract: At must be a pure function of t and safe for
// concurrent use. The acquisition front end (adc.ADC.Analog), SampleAt and
// the reference spectrum fan evaluations of one signal out over the par
// pool and rely on getting the serial values back bit for bit. Stateful
// models draw their randomness at construction, never inside At.
type Signal interface {
	// At returns the instantaneous value at time t (seconds).
	At(t float64) float64
}

// Envelope is a complex baseband (lowpass-equivalent) waveform. It carries
// the same concurrency contract as Signal: At is a pure function of t,
// safe for concurrent use, and every wrapper built on an Envelope keeps
// that property.
type Envelope interface {
	// At returns the complex envelope at time t (seconds).
	At(t float64) complex128
}

// EnvelopeFunc adapts an ordinary function to the Envelope interface.
type EnvelopeFunc func(t float64) complex128

// At implements Envelope.
func (f EnvelopeFunc) At(t float64) complex128 { return f(t) }

// Passband turns a complex envelope around carrier fc into the real RF
// waveform x(t) = Re{ env(t) * exp(i 2 pi fc t) }.
type Passband struct {
	Env Envelope
	Fc  float64
}

// At implements Signal.
func (p *Passband) At(t float64) float64 {
	e := p.Env.At(t)
	s, c := math.Sincos(2 * math.Pi * p.Fc * t)
	return real(e)*c - imag(e)*s
}

// Tone is a real sinusoid Amp * cos(2 pi Freq t + Phase).
type Tone struct {
	Amp   float64
	Freq  float64
	Phase float64
}

// At implements Signal.
func (s *Tone) At(t float64) float64 {
	return s.Amp * math.Cos(2*math.Pi*s.Freq*t+s.Phase)
}

// ComplexTone is a complex exponential Amp * exp(i(2 pi Freq t + Phase)),
// used as a baseband test envelope (a single tone offset from the carrier).
type ComplexTone struct {
	Amp   float64
	Freq  float64
	Phase float64
}

// At implements Envelope.
func (s *ComplexTone) At(t float64) complex128 {
	ph := 2*math.Pi*s.Freq*t + s.Phase
	sn, cs := math.Sincos(ph)
	return complex(s.Amp*cs, s.Amp*sn)
}

// Sum adds any number of signals.
type Sum []Signal

// At implements Signal.
func (s Sum) At(t float64) float64 {
	v := 0.0
	for _, x := range s {
		v += x.At(t)
	}
	return v
}

// ScaleEnv multiplies an envelope by a complex gain.
func ScaleEnv(x Envelope, gain complex128) Envelope {
	return EnvelopeFunc(func(t float64) complex128 { return gain * x.At(t) })
}

// SampleAt evaluates a signal at each time in ts. The evaluations fan out
// over the par pool (see the Signal concurrency contract); each lands in
// its own slot, so the result is identical at any worker count.
func SampleAt(x Signal, ts []float64) []float64 {
	out := make([]float64, len(ts))
	par.ForChunks(len(ts), sampleChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = x.At(ts[i])
		}
	})
	return out
}

// sampleChunk is the instant count per pool task of SampleAt: small enough
// that the few hundred instants of a fidelity check balance across workers.
const sampleChunk = 32

// Downconvert extracts the complex envelope of a real signal x around fc by
// analytic mixing: env(t) = 2 * LPF{ x(t) exp(-i 2 pi fc t) }. The caller is
// responsible for subsequent lowpass filtering of the sampled sequence; this
// helper only performs the instantaneous mix.
func Downconvert(x Signal, fc float64) Envelope {
	return EnvelopeFunc(func(t float64) complex128 {
		s, c := math.Sincos(2 * math.Pi * fc * t)
		v := x.At(t)
		return complex(2*v*c, -2*v*s)
	})
}
