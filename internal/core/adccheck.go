package core

import (
	"fmt"
	"math"

	"repro/internal/adc"
	"repro/internal/rf"
	"repro/internal/sig"
	"repro/internal/skew"
)

// ADCCheckResult reports the per-channel instrument pre-check.
type ADCCheckResult struct {
	// SNDRdB holds channel 0 and channel 1 signal-to-noise-and-distortion.
	SNDRdB [2]float64
	// ENOB holds the effective bits per channel.
	ENOB [2]float64
	// AliasFreq is the digital frequency (Hz) of the test tone after
	// subsampling.
	AliasFreq float64
}

// RunADCCheck verifies the reused receiver converters before trusting the
// BIST measurement: the transmitter emits a clean SSB tone, each channel
// captures it by subsampling, and a single-tone FFT test measures SNDR per
// channel. A converter with gross static nonlinearity (or excess noise)
// fails here, preventing the instrument from masquerading as a DUT fault —
// the fault-masking concern the paper raises about loopback BIST
// (Section I) applied to the converter itself.
//
// Note the healthy SNDR is jitter-limited, not quantization-limited: with
// 3 ps rms aperture/clock jitter on a 1 GHz carrier the ceiling is
// -20 log10(2 pi fc sigma_j) ~ 34.5 dB.
func (b *BIST) RunADCCheck() (*ADCCheckResult, error) {
	c := b.cfg
	// Pick a tone whose alias lands mid-band for a clean FFT test.
	fa, err := skew.SineTestFrequency(b.band, c.B, 0.23*c.B)
	if err != nil {
		return nil, err
	}
	fb := fa - c.Fc
	txCfg := c.Tx
	txCfg.Fc = c.Fc
	tx, err := rf.NewTransmitter(txCfg, &sig.ComplexTone{Amp: math.Sqrt(c.BasebandPower), Freq: fb})
	if err != nil {
		return nil, err
	}
	n := 4096
	cap0, err := finiteCapture(b.ti.Capture(tx.Output(), 1/c.B, c.NominalD, c.CaptureStart, n))
	if err != nil {
		return nil, fmt.Errorf("core: ADC check capture at rate B: %w", err)
	}
	alias, _ := skew.AliasedFrequency(fa, c.B)
	nu := alias / c.B
	res := &ADCCheckResult{AliasFreq: alias}
	for i, ch := range [][]float64{cap0.Ch0, cap0.Ch1} {
		dt, err := adc.DynamicTest(ch, nu)
		if err != nil {
			return nil, fmt.Errorf("core: ADC check channel %d: %w", i, err)
		}
		res.SNDRdB[i] = dt.SNDRdB
		res.ENOB[i] = dt.ENOB
	}
	return res, nil
}
