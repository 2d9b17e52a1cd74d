package modem

import (
	"fmt"

	"repro/internal/sig"
)

// MatchedFilter recovers symbol-rate decision variables from a continuous
// complex envelope by correlating with the pulse shape:
//
//	y[k] = (1/E) integral env(t) p(t - k Ts) dt
//
// evaluated numerically with oversample points per symbol. For an SRRC
// envelope this implements the SRRC matched filter whose cascade is the
// zero-ISI raised cosine, so y[k] recovers the transmitted symbols.
type MatchedFilter struct {
	Pulse      *SRRC
	Oversample int
	energy     float64
}

// NewMatchedFilter builds a matched filter for the pulse; oversample < 4
// defaults to 16.
func NewMatchedFilter(p *SRRC, oversample int) (*MatchedFilter, error) {
	if p == nil {
		return nil, fmt.Errorf("modem: matched filter needs a pulse")
	}
	if oversample < 4 {
		oversample = 16
	}
	return &MatchedFilter{Pulse: p, Oversample: oversample, energy: PulseEnergy(p, oversample)}, nil
}

// Demod extracts nSym symbols starting at symbol index k0 from the envelope.
func (m *MatchedFilter) Demod(env sig.Envelope, k0, nSym int) []complex128 {
	ts := m.Pulse.Ts
	dt := ts / float64(m.Oversample)
	span := float64(m.Pulse.Span) * ts
	out := make([]complex128, nSym)
	for k := 0; k < nSym; k++ {
		centre := float64(k0+k) * ts
		var acc complex128
		for t := centre - span; t <= centre+span; t += dt {
			p := m.Pulse.At(t - centre)
			if p == 0 {
				continue
			}
			acc += env.At(t) * complex(p*dt, 0)
		}
		out[k] = acc / complex(m.energy, 0)
	}
	return out
}
