package adc

import (
	"fmt"
	"math"
	"math/rand"
)

// StaticNL is a deterministic static-nonlinearity model for a converter:
// per-code threshold deviations expressed as INL (integral nonlinearity)
// in LSB. It perturbs the quantizer's reconstruction levels, the standard
// way production ADC defects (bowing, missing codes, gain/offset drift of
// the ladder) are modelled.
type StaticNL struct {
	// INL[k] is the deviation of code k's reconstruction level in LSB.
	INL []float64
}

// NewBowNL builds the classic quadratic "bow" INL profile with the given
// peak deviation (LSB) at mid-scale, for an n-bit converter.
func NewBowNL(bits int, peakLSB float64) (*StaticNL, error) {
	if bits < 1 || bits > 24 {
		return nil, fmt.Errorf("adc: bow NL bits %d outside [1, 24]", bits)
	}
	n := 1 << uint(bits)
	inl := make([]float64, n)
	for k := 0; k < n; k++ {
		x := 2*float64(k)/float64(n-1) - 1 // [-1, 1]
		inl[k] = peakLSB * (1 - x*x)
	}
	return &StaticNL{INL: inl}, nil
}

// NewRandomNL builds a random-walk INL profile with the given rms DNL
// (LSB), the signature of ladder element mismatch.
func NewRandomNL(bits int, dnlRMS float64, seed int64) (*StaticNL, error) {
	if bits < 1 || bits > 24 {
		return nil, fmt.Errorf("adc: random NL bits %d outside [1, 24]", bits)
	}
	if dnlRMS < 0 {
		return nil, fmt.Errorf("adc: negative DNL rms")
	}
	rng := rand.New(rand.NewSource(seed))
	n := 1 << uint(bits)
	inl := make([]float64, n)
	acc := 0.0
	for k := 1; k < n; k++ {
		acc += dnlRMS * rng.NormFloat64()
		inl[k] = acc
	}
	// Remove the straight-line (gain/offset) component so INL is pure
	// nonlinearity, per the standard endpoint definition.
	slope := inl[n-1] / float64(n-1)
	for k := range inl {
		inl[k] -= slope * float64(k)
	}
	return &StaticNL{INL: inl}, nil
}

// HistogramTest estimates DNL and INL of a converter from a code-density
// histogram acquired with a full-scale sinusoidal stimulus — the standard
// production static test. codes are raw output codes in [0, 2^bits);
// the stimulus must slightly overdrive both rails.
func HistogramTest(codes []int, bits int) (dnl, inl []float64, err error) {
	n := 1 << uint(bits)
	if len(codes) < 16*n {
		return nil, nil, fmt.Errorf("adc: histogram test needs >= %d samples, got %d", 16*n, len(codes))
	}
	hist := make([]float64, n)
	total := 0.0
	for _, c := range codes {
		if c < 0 || c >= n {
			return nil, nil, fmt.Errorf("adc: code %d outside [0, %d)", c, n)
		}
		hist[c]++
		total++
	}
	interior := 0.0
	for k := 1; k < n-1; k++ {
		interior += hist[k]
	}
	if interior == 0 {
		return nil, nil, fmt.Errorf("adc: histogram test: no mid-range hits")
	}
	// Standard cumulative arcsine transform: with the rails absorbing the
	// overdrive, the threshold between code k-1 and k sits (in units of the
	// stimulus amplitude) at
	//
	//	edge[k] = -cos(pi * CH(k-1) / total),  CH = cumulative histogram,
	//
	// including ALL samples in the normalisation. DNL is the deviation of
	// each interior code width from the mean interior width.
	edges := make([]float64, n) // edges[k] = lower threshold of code k
	cum := 0.0
	for k := 0; k < n-1; k++ {
		cum += hist[k]
		edges[k+1] = -math.Cos(math.Pi * cum / total)
	}
	widths := make([]float64, 0, n-2)
	for k := 1; k < n-1; k++ {
		widths = append(widths, edges[k+1]-edges[k])
	}
	ideal := 0.0
	for _, w := range widths {
		ideal += w
	}
	ideal /= float64(len(widths))
	if ideal <= 0 {
		return nil, nil, fmt.Errorf("adc: histogram test: degenerate edge span")
	}
	dnl = make([]float64, n-2)
	inl = make([]float64, n-1)
	acc := 0.0
	for i, w := range widths {
		d := w/ideal - 1
		dnl[i] = d
		acc += d
		inl[i+1] = acc
	}
	// Endpoint-correct INL.
	slope := inl[n-2] / float64(n-2)
	for k := range inl {
		inl[k] -= slope * float64(k)
	}
	return dnl, inl, nil
}

// SampleCodes acquires raw output codes (0 .. 2^bits-1) instead of
// reconstructed voltages, optionally through a static-nonlinearity model:
// the NL shifts each reconstruction level, which for the histogram test is
// equivalent to shifting the thresholds the stimulus crosses.
func (a *ADC) SampleCodes(x func(t float64) float64, times []float64, nl *StaticNL) []int {
	bits := a.cfg.Bits
	if bits == 0 {
		return nil
	}
	n := 1 << uint(bits)
	lsb := a.LSB()
	out := make([]int, len(times))
	for i, t := range times {
		te := t
		if a.cfg.JitterRMS > 0 {
			te += a.cfg.JitterRMS * a.rng.NormFloat64()
		}
		v := a.cfg.Gain*x(te) + a.cfg.Offset
		if a.cfg.NoiseRMS > 0 {
			v += a.cfg.NoiseRMS * a.rng.NormFloat64()
		}
		code := int(math.Floor(v/lsb)) + n/2
		if nl != nil && code >= 0 && code < len(nl.INL) {
			// An INL of e LSB at this code means the device actually
			// resolves the input as if shifted by -e LSB.
			code = int(math.Floor(v/lsb-nl.INL[code])) + n/2
		}
		if code < 0 {
			code = 0
		}
		if code >= n {
			code = n - 1
		}
		out[i] = code
	}
	return out
}
