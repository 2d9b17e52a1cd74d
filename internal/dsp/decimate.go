package dsp

import (
	"math"
	"sync"
)

// EnvelopeOversampling picks the factor by which a complex envelope at
// rate fs is oversampled when it is mixed down from a real carrier at fc.
// The -2fc mixing image aliases at over*fs to 2fc mod over*fs, folded into
// [0, over*fs/2]; the smallest over in 4..12 that leaves it beyond 0.6*fs
// puts it in DecimationLowpass's stopband. A fixed factor can drop the
// image inside the band for unlucky carrier/rate ratios (fc = 1.45 GHz
// with fs = 90 MHz at 4x). ok is false when no factor in range works.
func EnvelopeOversampling(fc, fs float64) (over int, ok bool) {
	for over = 4; over <= 12; over++ {
		hi := fs * float64(over)
		img := math.Mod(2*fc, hi)
		if img > hi/2 {
			img = hi - img
		}
		if img > 0.6*fs {
			return over, true
		}
	}
	return 0, false
}

// DecimationLowpass returns the anti-image FIR applied before decimating
// an oversampled envelope by over: 91 taps, Kaiser window for 70 dB of
// stopband, cutoff 0.45/over. The design depends only on over, so one
// filter per factor is designed process-wide and shared read-only
// (Decimate never mutates the taps).
func DecimationLowpass(over int) (*FIR, error) {
	if v, ok := decimLowpass.Load(over); ok {
		return v.(*FIR), nil
	}
	lp, err := DesignLowpass(91, 0.45/float64(over), KaiserWin, KaiserBeta(70))
	if err != nil {
		return nil, err
	}
	v, _ := decimLowpass.LoadOrStore(over, lp)
	return v.(*FIR), nil
}

var decimLowpass sync.Map // int (oversampling factor) -> *FIR
