// Package tiadc implements the nonuniform bandpass time-interleaved ADC
// (BP-TIADC) of paper Fig. 4: two converter channels sharing a clock
// generator, with the second channel triggered after a Digitally Controlled
// Delay Element (DCDE). Channel mismatches (gain, offset, jitter) live in
// the per-channel ADC models; the DCDE contributes delay quantization and an
// unknown static bias, which is exactly the quantity the paper's LMS
// technique must estimate.
package tiadc

import (
	"fmt"

	"repro/internal/adc"
	"repro/internal/sig"
)

// DCDE is a digitally controlled delay element with a settable range,
// a step (delay DAC resolution) and a static bias representing the analog
// mismatch that makes the true delay unknown a priori.
type DCDE struct {
	// Step is the delay resolution in seconds (0 = continuously variable).
	Step float64
	// Min and Max bound the programmable delay range.
	Min, Max float64
	// Bias is an unknown static error added to the programmed delay; the
	// BIST estimates the actual delay rather than trusting the setting.
	Bias float64
	// Stuck, when true, models a control word frozen at a fixed code: the
	// element ignores the programmed setting and realises StuckAt (plus
	// Bias) for every nominal delay. Unlike Bias — which the LMS absorbs —
	// a code stuck near a degenerate delay (e.g. ~0, where the two
	// channels sample almost coincidentally) destroys the reconstruction
	// conditioning and must be caught by the BIST.
	Stuck bool
	// StuckAt is the delay the frozen code realises (only read when Stuck
	// is set; may be 0).
	StuckAt float64
}

// Set programs a nominal delay and returns the actual delay realised by the
// element (quantized setting plus bias).
func (d *DCDE) Set(nominal float64) (float64, error) {
	if nominal < d.Min || nominal > d.Max {
		return 0, fmt.Errorf("tiadc: delay %g s outside DCDE range [%g, %g]", nominal, d.Min, d.Max)
	}
	if d.Stuck {
		return d.StuckAt + d.Bias, nil
	}
	setting := nominal
	if d.Step > 0 {
		steps := int(nominal/d.Step + 0.5)
		setting = float64(steps) * d.Step
	}
	return setting + d.Bias, nil
}

// Config assembles a two-channel nonuniform sampler.
type Config struct {
	// Ch0 and Ch1 configure the two converter channels.
	Ch0, Ch1 adc.Config
	// DCDE is the delay element inserted in channel 1's clock path.
	DCDE DCDE
	// ClockJitterRMS is additional jitter of the shared clock generator in
	// seconds rms (applied to both channels independently per edge, the
	// paper's 3 ps rms "time-skew jitter").
	ClockJitterRMS float64
	// Seed drives the shared clock jitter stream.
	Seed int64
}

// TIADC is the assembled sampler.
type TIADC struct {
	cfg Config
	a0  *adc.ADC
	a1  *adc.ADC
	// captures counts acquisitions so each capture draws fresh
	// (deterministic but independent) clock-jitter streams — successive
	// acquisitions in hardware see independent edge jitter.
	captures int64
}

// New validates the configuration and builds the sampler.
func New(cfg Config) (*TIADC, error) {
	if cfg.DCDE.Max < cfg.DCDE.Min {
		return nil, fmt.Errorf("tiadc: DCDE range inverted [%g, %g]", cfg.DCDE.Min, cfg.DCDE.Max)
	}
	if cfg.ClockJitterRMS < 0 {
		return nil, fmt.Errorf("tiadc: negative clock jitter")
	}
	a0, err := adc.New(cfg.Ch0)
	if err != nil {
		return nil, fmt.Errorf("tiadc: channel 0: %w", err)
	}
	a1, err := adc.New(cfg.Ch1)
	if err != nil {
		return nil, fmt.Errorf("tiadc: channel 1: %w", err)
	}
	return &TIADC{cfg: cfg, a0: a0, a1: a1}, nil
}

// Capture is one nonuniform acquisition: channel 0 sampled at
// t0 + n T and channel 1 at t0 + n T + D, n = 0..N-1.
type Capture struct {
	// T is the per-channel sample period (1/B).
	T float64
	// NominalD is the delay programmed into the DCDE.
	NominalD float64
	// ActualD is the ground-truth realised delay (setting + bias). It is
	// recorded for experiment scoring only — estimators must not read it.
	ActualD float64
	// T0 is the nominal instant of channel 0's first sample.
	T0 float64
	// Ch0 and Ch1 hold the captured (quantized) sample values.
	Ch0, Ch1 []float64
}

// N returns the per-channel sample count.
func (c *Capture) N() int { return len(c.Ch0) }

// Capture acquires n sample pairs of signal x at per-channel rate 1/period,
// with the DCDE programmed to nominalD and channel 0 starting at t0.
func (ti *TIADC) Capture(x sig.Signal, period, nominalD, t0 float64, n int) (*Capture, error) {
	if period <= 0 {
		return nil, fmt.Errorf("tiadc: period %g must be positive", period)
	}
	if n <= 0 {
		return nil, fmt.Errorf("tiadc: capture length %d must be positive", n)
	}
	actualD, err := ti.cfg.DCDE.Set(nominalD)
	if err != nil {
		return nil, err
	}
	ti.captures++
	seedBase := ti.cfg.Seed + ti.captures*7919 // fresh jitter per acquisition
	c0, err := adc.NewClock(period, t0, ti.cfg.ClockJitterRMS, seedBase)
	if err != nil {
		return nil, err
	}
	c1, err := adc.NewClock(period, t0+actualD, ti.cfg.ClockJitterRMS, seedBase+1)
	if err != nil {
		return nil, err
	}
	return &Capture{
		T:        period,
		NominalD: nominalD,
		ActualD:  actualD,
		T0:       t0,
		Ch0:      ti.a0.Sample(x, c0.Times(0, n)),
		Ch1:      ti.a1.Sample(x, c1.Times(0, n)),
	}, nil
}
