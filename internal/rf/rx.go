package rf

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/sig"
)

// RxConfig describes a simple homodyne receiver used for loopback testing
// (paper Fig. 1, lower half): LNA gain, downconversion at the shared LO,
// baseband noise and its own IQ imbalance. The paper's Section I criticises
// loopback BIST for fault masking — "a (non-catastrophic) failure of the Tx
// is covered up by an exceptionally good Rx"; this model makes that
// argument executable.
type RxConfig struct {
	// Fc is the downconversion LO frequency (shared with the Tx in
	// loopback).
	Fc float64
	// Gain is the front-end voltage gain (0 = 1).
	Gain float64
	// NoiseRMS is the input-referred baseband noise per I/Q rail (volts rms
	// at the sampling instants).
	NoiseRMS float64
	// IQ models the receiver's own quadrature imbalance (nil = perfect).
	IQ *IQImbalance
	// Seed drives the noise.
	Seed int64
}

// Receiver downconverts an RF signal to a complex baseband envelope.
type Receiver struct {
	cfg RxConfig
}

// NewReceiver validates the configuration.
func NewReceiver(cfg RxConfig) (*Receiver, error) {
	if cfg.Fc <= 0 {
		return nil, fmt.Errorf("rf: receiver needs a positive LO, got %g", cfg.Fc)
	}
	if cfg.NoiseRMS < 0 {
		return nil, fmt.Errorf("rf: receiver noise must be non-negative")
	}
	if cfg.Gain == 0 {
		cfg.Gain = 1
	}
	return &Receiver{cfg: cfg}, nil
}

// DemodEnvelope returns the receiver's baseband output as a continuous
// envelope: ideal quadrature mixing of the RF input (the 2 fc image is the
// caller's filtering concern, exactly as with sig.Downconvert), through the
// receiver's gain and IQ imbalance. Noise is added at sampling time by
// SampleBaseband, not here, so the envelope itself stays deterministic.
func (rx *Receiver) DemodEnvelope(in sig.Signal) sig.Envelope {
	base := sig.Downconvert(in, rx.cfg.Fc)
	g := complex(rx.cfg.Gain, 0)
	env := sig.EnvelopeFunc(func(t float64) complex128 { return g * base.At(t) })
	if rx.cfg.IQ != nil {
		return rx.cfg.IQ.ApplyEnv(env)
	}
	return env
}

// SampleBaseband acquires n complex baseband samples at rate fs starting at
// t0, applying an anti-image lowpass (the Rx channel filter) and the
// receiver noise. This is the signal the modem sees in loopback.
func (rx *Receiver) SampleBaseband(in sig.Signal, fs, t0 float64, n int) ([]complex128, error) {
	if fs <= 0 || n < 16 {
		return nil, fmt.Errorf("rf: receiver sampling needs fs > 0 and n >= 16")
	}
	env := rx.DemodEnvelope(in)
	// Oversample and filter away the 2 fc image, like any real channel
	// filter would; factor chosen so the image aliases out of band.
	over, ok := dsp.EnvelopeOversampling(rx.cfg.Fc, fs)
	if !ok {
		return nil, fmt.Errorf("rf: no oversampling factor separates the Rx 2fc image")
	}
	raw := make([]complex128, n*over)
	for i := range raw {
		raw[i] = env.At(t0 + float64(i)/(fs*float64(over)))
	}
	lp, err := dsp.DecimationLowpass(over)
	if err != nil {
		return nil, err
	}
	out := lp.Decimate(raw, over)[:n]
	if rx.cfg.NoiseRMS > 0 {
		rng := newSeededNorm(rx.cfg.Seed)
		for i := range out {
			out[i] += complex(rx.cfg.NoiseRMS*rng(), rx.cfg.NoiseRMS*rng())
		}
	}
	return out, nil
}
