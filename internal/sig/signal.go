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

// SignalFunc adapts an ordinary function to the Signal interface.
type SignalFunc func(t float64) float64

// At implements Signal.
func (f SignalFunc) At(t float64) float64 { return f(t) }

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

// EnvSum adds any number of envelopes.
type EnvSum []Envelope

// At implements Envelope.
func (s EnvSum) At(t float64) complex128 {
	var v complex128
	for _, x := range s {
		v += x.At(t)
	}
	return v
}

// Scale multiplies a signal by a constant gain.
func Scale(x Signal, gain float64) Signal {
	return SignalFunc(func(t float64) float64 { return gain * x.At(t) })
}

// ScaleEnv multiplies an envelope by a complex gain.
func ScaleEnv(x Envelope, gain complex128) Envelope {
	return EnvelopeFunc(func(t float64) complex128 { return gain * x.At(t) })
}

// Delay shifts a signal later in time by tau seconds.
func Delay(x Signal, tau float64) Signal {
	return SignalFunc(func(t float64) float64 { return x.At(t - tau) })
}

// DelayEnv shifts an envelope later in time by tau seconds.
func DelayEnv(x Envelope, tau float64) Envelope {
	return EnvelopeFunc(func(t float64) complex128 { return x.At(t - tau) })
}

// Zero is the all-zero signal.
var Zero Signal = SignalFunc(func(float64) float64 { return 0 })

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

// SampleEnvAt evaluates an envelope at each time in ts.
func SampleEnvAt(x Envelope, ts []float64) []complex128 {
	out := make([]complex128, len(ts))
	for i, t := range ts {
		out[i] = x.At(t)
	}
	return out
}

// UniformTimes returns n instants t0, t0+dt, ..., t0+(n-1)dt.
func UniformTimes(t0, dt float64, n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = t0 + float64(i)*dt
	}
	return ts
}

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

// Chirp is a linear frequency sweep: starting at F0 with rate Slope Hz/s,
// amplitude Amp. Useful for transient/tracking tests and STFT validation.
type Chirp struct {
	Amp   float64
	F0    float64
	Slope float64
	Phase float64
}

// At implements Signal: phase(t) = 2 pi (F0 t + Slope t^2 / 2).
func (c *Chirp) At(t float64) float64 {
	ph := 2*math.Pi*(c.F0*t+0.5*c.Slope*t*t) + c.Phase
	return c.Amp * math.Cos(ph)
}

// InstFreq returns the instantaneous frequency at t.
func (c *Chirp) InstFreq(t float64) float64 { return c.F0 + c.Slope*t }
