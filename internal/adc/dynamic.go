package adc

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dsp"
)

// DynamicResult summarises a coherent FFT-based dynamic converter test.
type DynamicResult struct {
	// SignalPowerDB is the fundamental power in dBFS-equivalent units
	// (relative to the measured record).
	SignalPowerDB float64
	// SNDRdB is signal over everything else (noise + distortion).
	SNDRdB float64
	// SFDRdB is signal over the worst single spur.
	SFDRdB float64
	// THDdB is signal over the first five harmonics.
	THDdB float64
	// ENOB is the effective number of bits (SNDR - 1.76)/6.02.
	ENOB float64
	// FundamentalBin is the detected fundamental FFT bin.
	FundamentalBin int
}

// DynamicTest runs the standard single-tone FFT test on a captured record:
// samples of a (nearly) coherent sinusoid at normalised frequency nu
// (cycles/sample). A Kaiser window (beta 13) handles residual
// non-coherence.
func DynamicTest(samples []float64, nu float64) (*DynamicResult, error) {
	n := len(samples)
	if n < 64 {
		return nil, fmt.Errorf("adc: dynamic test needs >= 64 samples, got %d", n)
	}
	if nu <= 0 || nu >= 0.5 {
		return nil, fmt.Errorf("adc: dynamic test frequency %g outside ]0, 0.5[", nu)
	}
	win := dynamicWindow(n)
	buf := make([]float64, n)
	mean := dsp.Mean(samples)
	for i, v := range samples {
		buf[i] = (v - mean) * win[i]
	}
	// One-sided spectrum (the complex plan on the widened record): bins
	// above n/2 are the conjugate mirror and carry no extra information for
	// the power analysis below.
	spec := dsp.RealFFTHalf(buf)
	half := n / 2
	power := make([]float64, half)
	for k := 1; k < half; k++ {
		re, im := real(spec[k]), imag(spec[k])
		power[k] = re*re + im*im
	}
	// Locate the fundamental near the expected bin.
	exp := int(nu*float64(n) + 0.5)
	fund := exp
	for k := max(1, exp-3); k <= min(half-1, exp+3); k++ {
		if power[k] > power[fund] {
			fund = k
		}
	}
	// Kaiser beta=13 main lobe spans ~+-4 bins around the peak.
	const lobe = 6
	sigPow := 0.0
	for k := max(1, fund-lobe); k <= min(half-1, fund+lobe); k++ {
		sigPow += power[k]
	}
	if sigPow <= 0 {
		return nil, fmt.Errorf("adc: dynamic test found no fundamental")
	}
	// Harmonics 2..6 (folded), for THD.
	thdPow := 0.0
	for h := 2; h <= 6; h++ {
		hb := foldBin(h*fund, n)
		if hb < 1 || hb >= half {
			continue
		}
		for k := max(1, hb-lobe); k <= min(half-1, hb+lobe); k++ {
			if k >= fund-lobe && k <= fund+lobe {
				continue
			}
			thdPow += power[k]
		}
	}
	// Residual = everything but fundamental (noise + distortion).
	resPow := 0.0
	worstSpur := 0.0
	for k := 1; k < half; k++ {
		if k >= fund-lobe && k <= fund+lobe {
			continue
		}
		resPow += power[k]
		if power[k] > worstSpur {
			worstSpur = power[k]
		}
	}
	if resPow <= 0 {
		resPow = 1e-300
	}
	if worstSpur <= 0 {
		worstSpur = 1e-300
	}
	if thdPow <= 0 {
		thdPow = 1e-300
	}
	sndr := 10 * math.Log10(sigPow/resPow)
	res := &DynamicResult{
		SignalPowerDB:  10 * math.Log10(sigPow),
		SNDRdB:         sndr,
		SFDRdB:         10 * math.Log10(sigPow/worstSpur),
		THDdB:          10 * math.Log10(sigPow/thdPow),
		ENOB:           (sndr - 1.76) / 6.02,
		FundamentalBin: fund,
	}
	return res, nil
}

// dynamicWindow returns the Kaiser window (beta 13) of length n. Beta 13
// keeps window sidelobes near -90 dB so leakage does not masquerade as
// noise in high-resolution SNDR measurements. The window depends only on
// n, so one per length is built process-wide and shared read-only
// (DynamicTest never mutates it), as DecimationLowpass shares its filters.
func dynamicWindow(n int) []float64 {
	if v, ok := dynamicWindows.Load(n); ok {
		return v.([]float64)
	}
	v, _ := dynamicWindows.LoadOrStore(n, dsp.Window(dsp.KaiserWin, n, 13))
	return v.([]float64)
}

var dynamicWindows sync.Map // int (record length) -> []float64

// foldBin maps an arbitrary harmonic bin into the first Nyquist zone.
func foldBin(k, n int) int {
	k = k % n
	if k < 0 {
		k += n
	}
	if k > n/2 {
		k = n - k
	}
	return k
}
