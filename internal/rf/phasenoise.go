package rf

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/sig"
)

// PhaseNoise models local-oscillator phase noise as a sum of random-phase
// sinusoidal phase modulations whose amplitudes realise a target single-
// sideband PSD L(f) specified in dBc/Hz at given frequency offsets. Between
// the specification points the PSD is interpolated log-log, the classical
// piecewise-linear phase-noise mask.
//
// Phi evaluates the process from Taylor cells of width phiH (see phiCell),
// built on first use and cached in a fixed table of phiSlots lock-free
// slots. A cell is a pure function of its index, so Phi's value never
// depends on the cache's state and a PhaseNoise is safe for concurrent use.
type PhaseNoise struct {
	freqs  []float64
	amps   []float64 // peak phase deviation per tone, radians
	phases []float64
	// taylor[k][m] = amps[k] * s^m / m! with s = 2*pi*freqs[k] * phiH/2:
	// tone k's weight on u^m in a cell.
	taylor [][phiOrder + 1]float64
	cells  *[phiSlots]atomic.Pointer[phiCell]
}

// The Φ table. A cell g covers |t - g*phiH| <= phiH/2, where Φ is the
// degree-phiOrder Taylor polynomial of every tone around g*phiH in the
// local offset u = (t - g*phiH)/(phiH/2). Both are constants, not options:
// the truncation error is bounded by sum_k a_k s_k^(phiOrder+1) /
// (phiOrder+1)! with s_k = 2*pi*f_k * phiH/2, about 1.5e-18 rad for the
// fault catalogue's 10 kHz - 10 MHz mask, and NewPhaseNoise refuses a mask
// whose bound exceeds phiMaxTrunc rather than degrade silently. phiSlots *
// phiH = 41 us covers a paper-size capture window with no two cells on one
// slot.
const (
	phiH        = 10e-9
	phiOrder    = 12
	phiSlots    = 4096 // a power of two: the slot is g & (phiSlots-1)
	phiMaxTrunc = 1e-15
)

// phiCell holds the Taylor coefficients of Φ around g*phiH in powers of u.
type phiCell struct {
	g int64
	e [phiOrder + 1]float64
}

// NewPhaseNoise builds a phase-noise process from a mask of (offset Hz,
// dBc/Hz) points, realised with nTones log-spaced tones between the first
// and last offsets. For small phase deviations, a tone of peak deviation
// b at offset f contributes L(f) = (b/2)^2 / bin to the SSB PSD; the tone
// amplitudes integrate the mask over each log-spaced bin.
func NewPhaseNoise(offsets, dBcHz []float64, nTones int, seed int64) (*PhaseNoise, error) {
	if len(offsets) != len(dBcHz) || len(offsets) < 2 {
		return nil, fmt.Errorf("rf: phase noise mask needs >= 2 matching points, got %d/%d",
			len(offsets), len(dBcHz))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= offsets[i-1] {
			return nil, fmt.Errorf("rf: phase noise offsets must increase")
		}
	}
	if offsets[0] <= 0 {
		return nil, fmt.Errorf("rf: phase noise offsets must be positive")
	}
	if nTones < 2 {
		nTones = 64
	}
	rng := rand.New(rand.NewSource(seed))
	pn := &PhaseNoise{
		freqs:  make([]float64, nTones),
		amps:   make([]float64, nTones),
		phases: make([]float64, nTones),
	}
	logLo := math.Log(offsets[0])
	logHi := math.Log(offsets[len(offsets)-1])
	for i := 0; i < nTones; i++ {
		l0 := logLo + (logHi-logLo)*float64(i)/float64(nTones)
		l1 := logLo + (logHi-logLo)*float64(i+1)/float64(nTones)
		f := math.Exp((l0 + l1) / 2)
		binW := math.Exp(l1) - math.Exp(l0)
		lf := interpMaskDB(offsets, dBcHz, f)
		// SSB power in the bin: 10^(L/10) * binW; tone phase deviation b
		// satisfies (b/2)^2 = bin power (two sidebands carry b^2/4 each).
		p := math.Pow(10, lf/10) * binW
		pn.freqs[i] = f
		pn.amps[i] = 2 * math.Sqrt(p)
		pn.phases[i] = 2 * math.Pi * rng.Float64()
	}
	pn.taylor = make([][phiOrder + 1]float64, nTones)
	bound := 0.0
	for i, f := range pn.freqs {
		s := 2 * math.Pi * f * (phiH / 2)
		c := pn.amps[i]
		for m := range pn.taylor[i] {
			pn.taylor[i][m] = c
			c *= s / float64(m+1)
		}
		bound += c
	}
	if bound > phiMaxTrunc {
		return nil, fmt.Errorf("rf: phase noise tones up to %g Hz exceed the Phi table's accuracy (truncation bound %.3g rad > %g)",
			pn.freqs[nTones-1], bound, phiMaxTrunc)
	}
	pn.cells = new([phiSlots]atomic.Pointer[phiCell])
	return pn, nil
}

// interpMaskDB interpolates the mask in dB over log-frequency.
func interpMaskDB(offsets, dBcHz []float64, f float64) float64 {
	if f <= offsets[0] {
		return dBcHz[0]
	}
	n := len(offsets)
	if f >= offsets[n-1] {
		return dBcHz[n-1]
	}
	for i := 1; i < n; i++ {
		if f <= offsets[i] {
			x0, x1 := math.Log(offsets[i-1]), math.Log(offsets[i])
			w := (math.Log(f) - x0) / (x1 - x0)
			return dBcHz[i-1] + w*(dBcHz[i]-dBcHz[i-1])
		}
	}
	return dBcHz[n-1]
}

// Phi returns the instantaneous phase deviation in radians at time t: a
// Horner evaluation of t's Taylor cell, which agrees with the direct tone
// sum (phiAnalytic) to its own argument rounding.
func (pn *PhaseNoise) Phi(t float64) float64 {
	gf := math.Round(t / phiH)
	g := int64(gf)
	slot := &pn.cells[g&(phiSlots-1)]
	c := slot.Load()
	if c == nil || c.g != g {
		c = pn.cell(g)
		slot.Store(c)
	}
	u := (t - gf*phiH) / (phiH / 2)
	v := c.e[phiOrder]
	for m := phiOrder - 1; m >= 0; m-- {
		v = v*u + c.e[m]
	}
	return v
}

// cell builds the Taylor coefficients around g*phiH with one Sincos per
// tone: the m-th derivative of cos θ cycles through cos θ, -sin θ, -cos θ,
// sin θ.
func (pn *PhaseNoise) cell(g int64) *phiCell {
	c := &phiCell{g: g}
	tg := float64(g) * phiH
	for k, f := range pn.freqs {
		sn, cs := math.Sincos(2*math.Pi*f*tg + pn.phases[k])
		d := [4]float64{cs, -sn, -cs, sn}
		for m, w := range &pn.taylor[k] {
			c.e[m] += w * d[m&3]
		}
	}
	return c
}

// phiAnalytic is the direct tone sum Phi tabulates: the oracle its tests
// compare against.
func (pn *PhaseNoise) phiAnalytic(t float64) float64 {
	v := 0.0
	for i, f := range pn.freqs {
		v += pn.amps[i] * math.Cos(2*math.Pi*f*t+pn.phases[i])
	}
	return v
}

// RMSRadians estimates the integrated RMS phase deviation.
func (pn *PhaseNoise) RMSRadians() float64 {
	v := 0.0
	for _, a := range pn.amps {
		v += a * a / 2
	}
	return math.Sqrt(v)
}

// ApplyEnv rotates an envelope by the instantaneous phase-noise process.
func (pn *PhaseNoise) ApplyEnv(env sig.Envelope) sig.Envelope {
	return sig.EnvelopeFunc(func(t float64) complex128 {
		s, c := math.Sincos(pn.Phi(t))
		return env.At(t) * complex(c, s)
	})
}
