package tiadc

import (
	"fmt"
	"math"
)

// Mismatch holds the estimated inter-channel gain/offset mismatch of a
// capture. The paper (Section III) notes that "the offset and the gain
// error calibrations are relatively simple to implement [16]"; this file
// implements the background estimation in the style of Fu, Dyer, Lewis &
// Hurst (JSSC 1998): both channels observe the same wide-sense-stationary
// signal, so their sample means estimate the offsets and their RMS ratio
// estimates the gain mismatch — no test signal needed.
type Mismatch struct {
	// Offset0 and Offset1 are the per-channel DC offsets (volts).
	Offset0, Offset1 float64
	// Gain1Over0 is the channel-1/channel-0 gain ratio.
	Gain1Over0 float64
}

// EstimateMismatch measures the mismatch from a capture. A bandpass signal
// carries no DC, so the channel means are pure offset; the AC RMS ratio is
// the gain ratio. The estimate improves as 1/sqrt(N).
func EstimateMismatch(c *Capture) (Mismatch, error) {
	if c == nil || c.N() < 16 {
		return Mismatch{}, fmt.Errorf("tiadc: mismatch estimation needs >= 16 sample pairs")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	rmsAC := func(xs []float64, m float64) float64 {
		s := 0.0
		for _, v := range xs {
			d := v - m
			s += d * d
		}
		return math.Sqrt(s / float64(len(xs)))
	}
	m0 := mean(c.Ch0)
	m1 := mean(c.Ch1)
	r0 := rmsAC(c.Ch0, m0)
	r1 := rmsAC(c.Ch1, m1)
	if r0 == 0 {
		return Mismatch{}, fmt.Errorf("tiadc: channel 0 has no AC content")
	}
	return Mismatch{Offset0: m0, Offset1: m1, Gain1Over0: r1 / r0}, nil
}

// Corrected returns a copy of the capture with the mismatch removed:
// channel 0 is the reference; channel 1 is offset-corrected and re-scaled
// to channel 0's gain.
func (m Mismatch) Corrected(c *Capture) (*Capture, error) {
	if c == nil {
		return nil, fmt.Errorf("tiadc: nil capture")
	}
	if m.Gain1Over0 == 0 {
		return nil, fmt.Errorf("tiadc: zero gain ratio")
	}
	out := &Capture{
		T:        c.T,
		NominalD: c.NominalD,
		ActualD:  c.ActualD,
		T0:       c.T0,
		Ch0:      make([]float64, len(c.Ch0)),
		Ch1:      make([]float64, len(c.Ch1)),
	}
	for i, v := range c.Ch0 {
		out.Ch0[i] = v - m.Offset0
	}
	for i, v := range c.Ch1 {
		out.Ch1[i] = (v - m.Offset1) / m.Gain1Over0
	}
	return out, nil
}
