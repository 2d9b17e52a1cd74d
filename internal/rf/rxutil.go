package rf

import "math/rand"

// newSeededNorm returns a deterministic standard-normal generator.
func newSeededNorm(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.NormFloat64
}
