package sig

import (
	"math"
	"math/rand"
)

// BandNoise is a stationary Gaussian-like band-limited noise process built
// from a dense sum of random-phase sinusoids (the classical sum-of-sinusoids
// model). It is evaluable at arbitrary t, deterministic for a given seed and
// has one-sided power Power spread uniformly over [FLow, FHigh].
type BandNoise struct {
	freqs  []float64
	amps   []float64
	phases []float64
}

// NewBandNoise creates a band-limited noise signal with total power
// (variance) power spread over [fLow, fHigh] using nTones components.
// By the central limit theorem the amplitude distribution approaches
// Gaussian for nTones >~ 50.
func NewBandNoise(fLow, fHigh, power float64, nTones int, seed int64) *BandNoise {
	if nTones < 1 {
		nTones = 1
	}
	rng := rand.New(rand.NewSource(seed))
	n := &BandNoise{
		freqs:  make([]float64, nTones),
		amps:   make([]float64, nTones),
		phases: make([]float64, nTones),
	}
	// Each tone amp A contributes A^2/2 power; jitter the frequency inside
	// each sub-band so the process is not periodic.
	amp := math.Sqrt(2 * power / float64(nTones))
	df := (fHigh - fLow) / float64(nTones)
	for i := 0; i < nTones; i++ {
		n.freqs[i] = fLow + (float64(i)+rng.Float64())*df
		n.amps[i] = amp
		n.phases[i] = 2 * math.Pi * rng.Float64()
	}
	return n
}

// At implements Signal.
func (n *BandNoise) At(t float64) float64 {
	v := 0.0
	for i, f := range n.freqs {
		v += n.amps[i] * math.Cos(2*math.Pi*f*t+n.phases[i])
	}
	return v
}
