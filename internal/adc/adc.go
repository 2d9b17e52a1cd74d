// Package adc models the analog-to-digital converters reused by the BIST:
// sample-and-hold with Gaussian aperture jitter, mid-rise quantization with
// clipping, gain and offset errors and input-referred noise. The paper's
// configuration is two 10-bit converters at 90 MS/s with 3 ps rms sampling
// jitter.
package adc

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/sig"
)

// Config describes one converter channel.
type Config struct {
	// Bits is the resolution (1..30). 0 disables quantization (ideal ADC).
	Bits int
	// FullScale is the +- input range in volts; required when Bits > 0.
	FullScale float64
	// Gain is the channel gain error as a multiplier (0 means ideal = 1).
	Gain float64
	// Offset is the additive channel offset in volts.
	Offset float64
	// JitterRMS is the Gaussian aperture jitter in seconds rms.
	JitterRMS float64
	// NoiseRMS is input-referred Gaussian noise in volts rms.
	NoiseRMS float64
	// NL optionally applies a static-nonlinearity (INL) profile to the
	// quantizer's reconstruction levels; it must have 2^Bits entries.
	NL *StaticNL
	// Seed makes the stochastic impairments reproducible.
	Seed int64
}

// ADC is a configured converter channel.
type ADC struct {
	cfg Config
	rng *rand.Rand
}

// New validates the configuration and builds a converter.
func New(cfg Config) (*ADC, error) {
	if cfg.Bits < 0 || cfg.Bits > 30 {
		return nil, fmt.Errorf("adc: bits %d outside [0, 30]", cfg.Bits)
	}
	if cfg.Bits > 0 && cfg.FullScale <= 0 {
		return nil, fmt.Errorf("adc: full scale %g must be positive when quantizing", cfg.FullScale)
	}
	if cfg.JitterRMS < 0 || cfg.NoiseRMS < 0 {
		return nil, fmt.Errorf("adc: negative jitter/noise")
	}
	if cfg.Gain == 0 {
		cfg.Gain = 1
	}
	if cfg.NL != nil {
		if cfg.Bits == 0 {
			return nil, fmt.Errorf("adc: static NL requires a quantizing ADC (Bits > 0)")
		}
		if len(cfg.NL.INL) != 1<<uint(cfg.Bits) {
			return nil, fmt.Errorf("adc: NL profile has %d entries for %d bits",
				len(cfg.NL.INL), cfg.Bits)
		}
	}
	return &ADC{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// LSB returns the quantization step, or 0 for an ideal ADC.
func (a *ADC) LSB() float64 {
	if a.cfg.Bits == 0 {
		return 0
	}
	return 2 * a.cfg.FullScale / float64(int64(1)<<uint(a.cfg.Bits))
}

// Quantize maps an analog value to the reconstructed quantized level
// (mid-rise), clipping at the full-scale rails and applying the static
// nonlinearity profile when configured.
func (a *ADC) Quantize(v float64) float64 {
	if a.cfg.Bits == 0 {
		return v
	}
	lsb := a.LSB()
	half := float64(int64(1) << uint(a.cfg.Bits-1))
	code := math.Floor(v/lsb) + 0.5
	if code > half-0.5 {
		code = half - 0.5
	}
	if code < -half+0.5 {
		code = -half + 0.5
	}
	if a.cfg.NL != nil {
		idx := int(code - 0.5 + half)
		if idx >= 0 && idx < len(a.cfg.NL.INL) {
			code += a.cfg.NL.INL[idx]
		}
	}
	return code * lsb
}

// Analog runs the analog front end at the given instants — aperture jitter,
// gain, offset, input-referred noise — without quantization, writing the
// held voltages into out (len(out) must be >= len(times)). The converter's
// random stream is consumed on the calling goroutine in index order (sample
// i's jitter draw, then its noise draw), exactly as a serial front end
// would; only the signal evaluations fan out over the par pool, which the
// sig.Signal purity contract permits. The held values are therefore
// bit-identical at any worker count. Successive calls continue the random
// stream, so a capture split across calls must cover ascending,
// non-overlapping index ranges on one goroutine.
func (a *ADC) Analog(x sig.Signal, times, out []float64) {
	n := len(times)
	out = out[:n]
	jitter, noise := a.cfg.JitterRMS > 0, a.cfg.NoiseRMS > 0
	te := times
	if jitter {
		te = make([]float64, n)
	}
	// Serial draws. Each noise draw is parked in its output slot until the
	// evaluation below folds it in.
	for i, t := range times {
		if jitter {
			te[i] = t + a.cfg.JitterRMS*a.rng.NormFloat64()
		}
		if noise {
			out[i] = a.rng.NormFloat64()
		}
	}
	par.ForChunks(n, analogChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := a.cfg.Gain*x.At(te[i]) + a.cfg.Offset
			if noise {
				v += a.cfg.NoiseRMS * out[i]
			}
			out[i] = v
		}
	})
}

// analogChunk is the sample count per pool task of Analog: a paper-size
// capture (~1-2k samples) splits into enough tasks that the workers finish
// together, while a task still costs far more than its dispatch.
const analogChunk = 64

// Sample acquires the signal at the given instants, applying aperture
// jitter, gain, offset, noise and quantization. The instants themselves are
// the requested (nominal) times; the jitter perturbs the actual acquisition.
func (a *ADC) Sample(x sig.Signal, times []float64) []float64 {
	out := make([]float64, len(times))
	a.Analog(x, times, out)
	for i, v := range out {
		out[i] = a.Quantize(v)
	}
	return out
}

// Clock generates sampling instants t[n] = Phase + n * Period, optionally
// perturbed by Gaussian edge jitter. It models the paper's delayed clock
// pair: two Clocks sharing a Period but offset by the DCDE delay D.
type Clock struct {
	Period    float64
	Phase     float64
	JitterRMS float64
	rng       *rand.Rand
}

// NewClock validates and builds a clock; seed controls the jitter stream.
func NewClock(period, phase, jitterRMS float64, seed int64) (*Clock, error) {
	if period <= 0 {
		return nil, fmt.Errorf("adc: clock period %g must be positive", period)
	}
	if jitterRMS < 0 {
		return nil, fmt.Errorf("adc: negative clock jitter")
	}
	return &Clock{Period: period, Phase: phase, JitterRMS: jitterRMS,
		rng: rand.New(rand.NewSource(seed))}, nil
}

// Times returns n successive sampling instants starting at index n0.
func (c *Clock) Times(n0, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := c.Phase + float64(n0+i)*c.Period
		if c.JitterRMS > 0 {
			t += c.JitterRMS * c.rng.NormFloat64()
		}
		out[i] = t
	}
	return out
}
