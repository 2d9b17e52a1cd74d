package rf

import (
	"fmt"
	"math"

	"repro/internal/sig"
)

// SpurComb models discrete local-oscillator spurs at harmonics of a single
// offset frequency — the signature of a damaged fractional-N PLL whose
// reference or fractional spurs are no longer attenuated by the loop
// filter. Each spur is a small-angle phase modulation tone: a spur at
// level L dBc appears as a pair of signal images at +-k*Spacing carrying
// 10^(L/10) of the carrier power between them. Unlike PhaseNoise (a dense
// tone bank realising a continuous PSD), the comb is sparse and coherent:
// the images land at fixed offsets where an emission mask can catch them.
type SpurComb struct {
	// Spacing is the fundamental spur offset in Hz; harmonic k sits at
	// k*Spacing.
	Spacing float64
	// LevelsDBc holds the per-harmonic spur levels (both sidebands
	// combined), LevelsDBc[k-1] for harmonic k.
	LevelsDBc []float64
	// amps[k-1] is the peak phase deviation of harmonic k in radians.
	amps   []float64
	phases []float64
}

// NewSpurComb validates and builds the comb. Phases are drawn
// deterministically from the seed so a configured fault reproduces the
// exact same waveform in every run.
func NewSpurComb(spacing float64, levelsDBc []float64, seed int64) (*SpurComb, error) {
	if spacing <= 0 {
		return nil, fmt.Errorf("rf: spur comb needs a positive spacing, got %g", spacing)
	}
	if len(levelsDBc) == 0 {
		return nil, fmt.Errorf("rf: spur comb needs at least one harmonic level")
	}
	for k, l := range levelsDBc {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("rf: spur comb harmonic %d level must be finite, got %g", k+1, l)
		}
		if l >= 0 {
			return nil, fmt.Errorf("rf: spur comb harmonic %d level %g dBc must be negative", k+1, l)
		}
	}
	sc := &SpurComb{
		Spacing:   spacing,
		LevelsDBc: append([]float64(nil), levelsDBc...),
		amps:      make([]float64, len(levelsDBc)),
		phases:    make([]float64, len(levelsDBc)),
	}
	// SplitMix64-style phase draw: cheap, stateless, decorrelated across
	// harmonics, and independent of math/rand generator changes.
	for k, l := range levelsDBc {
		// Two sidebands carry (b/2)^2 each: b = 2*10^(L/20) for a combined
		// level of L dBc.
		sc.amps[k] = 2 * math.Pow(10, l/20)
		z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(k+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		sc.phases[k] = 2 * math.Pi * float64(z>>11) / float64(uint64(1)<<53)
	}
	return sc, nil
}

// Phi returns the instantaneous phase deviation in radians at time t.
func (s *SpurComb) Phi(t float64) float64 {
	v := 0.0
	for k, a := range s.amps {
		v += a * math.Cos(2*math.Pi*float64(k+1)*s.Spacing*t+s.phases[k])
	}
	return v
}

// ApplyEnv rotates an envelope by the comb's phase process.
func (s *SpurComb) ApplyEnv(env sig.Envelope) sig.Envelope {
	return sig.EnvelopeFunc(func(t float64) complex128 {
		sn, cs := math.Sincos(s.Phi(t))
		return env.At(t) * complex(cs, sn)
	})
}

// Describe summarises the comb for reports.
func (s *SpurComb) Describe() string {
	return fmt.Sprintf("spurs(%d @ %.3g Hz, %.0f dBc)", len(s.amps), s.Spacing, s.LevelsDBc[0])
}
