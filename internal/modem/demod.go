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
	// weights[i] is p(x_i)·dt on PulseEnergy's tap grid
	// x_i = (i − nh)·dt, nh = Span·Oversample, dt = Ts/Oversample.
	weights []float64
	energy  float64
}

// NewMatchedFilter builds a matched filter for the pulse; oversample < 4
// defaults to 16. The pulse is sampled once, here, on the tap grid.
func NewMatchedFilter(p *SRRC, oversample int) (*MatchedFilter, error) {
	if p == nil {
		return nil, fmt.Errorf("modem: matched filter needs a pulse")
	}
	if oversample < 4 {
		oversample = 16
	}
	v, dt := pulseSamples(p, oversample)
	w := make([]float64, len(v))
	for i, x := range v {
		w[i] = x * dt
	}
	return &MatchedFilter{Pulse: p, Oversample: oversample, weights: w, energy: PulseEnergy(p, oversample)}, nil
}

// Demod extracts nSym symbols starting at symbol index k0 from the
// envelope, correlating symbol k over the instants centre + m·dt,
// m = −nh..nh, around centre = (k0+k)·Ts.
func (m *MatchedFilter) Demod(env sig.Envelope, k0, nSym int) []complex128 {
	ts := m.Pulse.Ts
	dt := ts / float64(m.Oversample)
	nh := len(m.weights) / 2
	out := make([]complex128, nSym)
	for k := 0; k < nSym; k++ {
		centre := float64(k0+k) * ts
		var acc complex128
		for i, w := range m.weights {
			if w == 0 {
				continue
			}
			acc += env.At(centre+float64(i-nh)*dt) * complex(w, 0)
		}
		out[k] = acc / complex(m.energy, 0)
	}
	return out
}

// EVM measures the reference-aided EVM of n symbols of env starting at
// symbol index k0: Demod recovers them, the cyclic stream syms supplies the
// reference (index (k0+k) mod len(syms), safe for negative k0), and
// NormalizeScaleAndPhase removes the common complex gain before the
// comparison.
func (m *MatchedFilter) EVM(env sig.Envelope, syms []complex128, k0, n int) (EVMResult, error) {
	got := m.Demod(env, k0, n)
	ref := make([]complex128, n)
	for i := range ref {
		ref[i] = syms[((k0+i)%len(syms)+len(syms))%len(syms)]
	}
	norm, err := NormalizeScaleAndPhase(got, ref)
	if err != nil {
		return EVMResult{}, err
	}
	return EVM(norm, ref)
}
