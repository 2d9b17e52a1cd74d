package rf

import (
	"fmt"
	"strings"

	"repro/internal/sig"
)

// TxConfig describes the homodyne transmitter chain of paper Fig. 1. Any nil
// block is ideal/absent, so the zero value (plus a carrier) is a perfect
// transmitter.
type TxConfig struct {
	// Fc is the carrier frequency in Hz.
	Fc float64
	// IQ models quadrature modulator impairments (nil = perfect).
	IQ *IQImbalance
	// PhaseNoise models the RF local oscillator (nil = clean).
	PhaseNoise *PhaseNoise
	// Spurs models discrete LO spur combs (nil = spur-free), applied after
	// the continuous phase-noise process.
	Spurs *SpurComb
	// PA is the power amplifier model (nil = unity).
	PA PA
}

// Transmitter is a configured homodyne transmitter driving a baseband
// envelope through the impairment chain up to the PA output.
type Transmitter struct {
	cfg    TxConfig
	outEnv sig.Envelope
}

// NewTransmitter composes the chain
// baseband -> IQ modulator -> LO phase noise -> LO spurs -> PA.
func NewTransmitter(cfg TxConfig, baseband sig.Envelope) (*Transmitter, error) {
	if cfg.Fc <= 0 {
		return nil, fmt.Errorf("rf: transmitter needs a positive carrier, got %g", cfg.Fc)
	}
	if baseband == nil {
		return nil, fmt.Errorf("rf: transmitter needs a baseband envelope")
	}
	env := baseband
	if cfg.IQ != nil {
		env = cfg.IQ.ApplyEnv(env)
	}
	if cfg.PhaseNoise != nil {
		env = cfg.PhaseNoise.ApplyEnv(env)
	}
	if cfg.Spurs != nil {
		env = cfg.Spurs.ApplyEnv(env)
	}
	if cfg.PA != nil {
		env = ApplyPA(cfg.PA, env)
	}
	return &Transmitter{cfg: cfg, outEnv: env}, nil
}

// OutputEnvelope returns the PA-output complex envelope.
func (tx *Transmitter) OutputEnvelope() sig.Envelope { return tx.outEnv }

// Output returns the real RF waveform at the PA output / antenna port. This
// is the bandpass signal the BP-TIADC captures.
func (tx *Transmitter) Output() sig.Signal {
	return &sig.Passband{Env: tx.outEnv, Fc: tx.cfg.Fc}
}

// Describe summarises the configured chain for reports.
func (tx *Transmitter) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "homodyne tx @ %.6g Hz", tx.cfg.Fc)
	if tx.cfg.IQ != nil {
		fmt.Fprintf(&b, ", IQ(g=%.4g, phi=%.4g rad, IRR=%.1f dB)",
			tx.cfg.IQ.GainRatio, tx.cfg.IQ.PhaseError, tx.cfg.IQ.ImageRejectionDB())
	}
	if tx.cfg.PhaseNoise != nil {
		fmt.Fprintf(&b, ", LO PN %.3g mrad rms", 1e3*tx.cfg.PhaseNoise.RMSRadians())
	}
	if tx.cfg.Spurs != nil {
		fmt.Fprintf(&b, ", LO %s", tx.cfg.Spurs.Describe())
	}
	if tx.cfg.PA != nil {
		fmt.Fprintf(&b, ", PA %s", tx.cfg.PA.Describe())
	}
	return b.String()
}
