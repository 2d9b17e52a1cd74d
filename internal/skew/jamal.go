package skew

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/pnbs"
)

// This file implements the known-sinusoid baseline the paper adapted from
// Jamal, Fu, Singh, Hurst & Lewis, "Calibration of sample-time error in a
// two-channel time-interleaved analog-to-digital converter" (TCAS-I 2004),
// reference [14]. The original is a background calibration loop for T/2
// interleaving; its essence for a sinusoidal stimulus is a per-channel
// phase reference: both channels sample the same known tone, the aliased
// digital tone is fitted on each channel, and the inter-channel phase
// difference divided by the RF frequency yields the delay. The technique
// requires a known, spectrally clean stimulus and — as Table I of the paper
// shows — its accuracy depends strongly on where the aliased tone lands
// (leakage and quantization-spur coherence), which is what makes it
// "restrictive and unreliable" compared with the LMS approach.

// SineEstimateConfig configures the baseline estimator.
type SineEstimateConfig struct {
	// F0 is the known RF frequency of the test sinusoid in Hz.
	F0 float64
	// B is the per-channel sampling rate (1/T).
	B float64
	// T0 is the nominal instant of channel 0's first sample.
	T0 float64
	// DMax bounds the admissible delay; it must be below the 1/F0 phase
	// ambiguity (pass m from the cost conditions).
	DMax float64
}

// AliasedFrequency returns the digital frequency (Hz, in [0, B/2]) where an
// RF tone at f0 lands after real sampling at rate B, and whether the
// spectrum is inverted at that alias.
func AliasedFrequency(f0, b float64) (fa float64, inverted bool) {
	fr := math.Mod(f0, b)
	if fr < 0 {
		fr += b
	}
	if fr <= b/2 {
		return fr, false
	}
	return b - fr, true
}

// EstimateSine recovers the inter-channel delay from the two channel
// captures of the known sinusoid: three-parameter sine fits at the aliased
// frequency give each channel's phase; the raw phase difference equals
// 2 pi f0 D modulo 2 pi.
func EstimateSine(cfg SineEstimateConfig, ch0, ch1 []float64) (float64, error) {
	if cfg.F0 <= 0 || cfg.B <= 0 {
		return 0, fmt.Errorf("skew: sine estimator needs positive F0/B, got %g/%g", cfg.F0, cfg.B)
	}
	if len(ch0) != len(ch1) || len(ch0) < 8 {
		return 0, fmt.Errorf("skew: sine estimator needs matched captures of >= 8 samples")
	}
	if cfg.DMax <= 0 || cfg.DMax >= 1/cfg.F0 {
		return 0, fmt.Errorf("skew: DMax %g outside ]0, 1/F0 = %g[ (phase ambiguity)",
			cfg.DMax, 1/cfg.F0)
	}
	fa, inverted := AliasedFrequency(cfg.F0, cfg.B)
	if fa < 1e-3*cfg.B || fa > 0.4999*cfg.B {
		return 0, fmt.Errorf("skew: aliased tone at %g Hz too close to 0 or B/2 for a sine fit", fa)
	}
	t := 1 / cfg.B
	ts := make([]float64, len(ch0))
	for i := range ts {
		ts[i] = float64(i) * t
	}
	_, p0, _, err := dsp.SineFit3(ts, ch0, fa)
	if err != nil {
		return 0, err
	}
	_, p1, _, err := dsp.SineFit3(ts, ch1, fa)
	if err != nil {
		return 0, err
	}
	if inverted {
		p0, p1 = -p0, -p1
	}
	// ch1 lags ch0 by D at the RF frequency: theta1 - theta0 = 2 pi f0 D.
	dphi := math.Mod(p1-p0, 2*math.Pi)
	if dphi < 0 {
		dphi += 2 * math.Pi
	}
	d := dphi / (2 * math.Pi * cfg.F0)
	if d > cfg.DMax {
		// The other wrap candidate (negative lag) is out of the admissible
		// interval; report the in-range interpretation when one exists.
		alt := d - 1/cfg.F0
		if alt >= 0 && alt <= cfg.DMax {
			return alt, nil
		}
		return 0, fmt.Errorf("skew: sine estimate %g s outside ]0, %g]", d, cfg.DMax)
	}
	return d, nil
}

// SineTestFrequency picks an in-band RF frequency whose alias lands at the
// requested digital frequency faTarget (e.g. 0.4*B as in Table I): the
// smallest f0 = n*B + faTarget inside the band. It errors when the band
// contains no such frequency.
func SineTestFrequency(band pnbs.Band, b, faTarget float64) (float64, error) {
	if faTarget <= 0 || faTarget >= b/2 {
		return 0, fmt.Errorf("skew: alias target %g outside ]0, B/2[", faTarget)
	}
	nLo := int(math.Ceil((band.FLow - faTarget) / b))
	for n := nLo; ; n++ {
		f0 := float64(n)*b + faTarget
		if f0 > band.FHigh() {
			break
		}
		if f0 >= band.FLow {
			return f0, nil
		}
	}
	// Try the inverted alias family f0 = n*B - faTarget.
	nLo = int(math.Ceil((band.FLow + faTarget) / b))
	for n := nLo; ; n++ {
		f0 := float64(n)*b - faTarget
		if f0 > band.FHigh() {
			break
		}
		if f0 >= band.FLow {
			return f0, nil
		}
	}
	return 0, fmt.Errorf("skew: no in-band tone aliases to %g Hz at rate %g", faTarget, b)
}
