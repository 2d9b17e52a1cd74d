package rf

import (
	"fmt"

	"repro/internal/sig"
)

// MemoryPolyPA is a memory-polynomial (pruned Volterra) PA model:
//
//	y(t) = sum_{q=0}^{Q} sum_{p in {1,3,5}} a[q][p] x(t - q tau) |x(t - q tau)|^(p-1)
//
// the industry-standard behavioural model for PAs whose bias networks and
// matching introduce memory: spectral regrowth becomes asymmetric and
// cannot be captured by a memoryless AM/AM curve. It operates on the
// complex envelope like the other PA models but, because it needs delayed
// input samples, it lifts whole envelopes rather than single values.
type MemoryPolyPA struct {
	// Taps[q] holds the complex coefficients {a1, a3, a5} for delay q.
	Taps [][3]complex128
	// Tau is the memory tap spacing in seconds.
	Tau float64
}

// NewMemoryPolyPA validates the model.
func NewMemoryPolyPA(taps [][3]complex128, tau float64) (*MemoryPolyPA, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("rf: memory PA needs at least one tap")
	}
	if len(taps) > 1 && tau <= 0 {
		return nil, fmt.Errorf("rf: memory PA with %d taps needs a positive tau", len(taps))
	}
	return &MemoryPolyPA{Taps: taps, Tau: tau}, nil
}

// Apply implements the PA interface with the model's memoryless core (the
// q = 0 tap polynomial). A single value cannot carry the delayed-input
// history, so this is exact only for single-tap models; NewTransmitter
// detects the EnvelopePA capability and routes whole envelopes through
// ApplyEnv, which evaluates the full memory structure.
func (p *MemoryPolyPA) Apply(v complex128) complex128 {
	c := p.Taps[0]
	r2 := real(v)*real(v) + imag(v)*imag(v)
	return v * (c[0] + c[1]*complex(r2, 0) + c[2]*complex(r2*r2, 0))
}

// ApplyEnv lifts the model to a whole envelope.
func (p *MemoryPolyPA) ApplyEnv(env sig.Envelope) sig.Envelope {
	taps := p.Taps
	tau := p.Tau
	return sig.EnvelopeFunc(func(t float64) complex128 {
		var acc complex128
		for q, c := range taps {
			x := env.At(t - float64(q)*tau)
			r2 := real(x)*real(x) + imag(x)*imag(x)
			acc += x * (c[0] + c[1]*complex(r2, 0) + c[2]*complex(r2*r2, 0))
		}
		return acc
	})
}

// Describe matches the PA interface convention for reports.
func (p *MemoryPolyPA) Describe() string {
	return fmt.Sprintf("memory-poly(%d taps, tau=%.3g s)", len(p.Taps), p.Tau)
}
