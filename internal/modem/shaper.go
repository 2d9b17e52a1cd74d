package modem

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// ShapedEnvelope is the continuous complex envelope of a pulse-shaped symbol
// stream: env(t) = sum_k a[k] p(t - k Ts). With Cyclic set, the symbol index
// wraps modulo the stream length, making the process defined (and cyclo-
// stationary) for all t — convenient for long PSD captures from a finite
// symbol memory, exactly like a looping arbitrary waveform generator.
type ShapedEnvelope struct {
	Symbols []complex128
	Pulse   Pulse
	// Cyclic selects periodic extension of the symbol stream.
	Cyclic bool
	// Gain scales the envelope (1 = unscaled).
	Gain float64
}

// NewShapedEnvelope validates and builds a shaped envelope with unit gain.
func NewShapedEnvelope(symbols []complex128, pulse Pulse, cyclic bool) (*ShapedEnvelope, error) {
	if len(symbols) == 0 {
		return nil, fmt.Errorf("modem: shaped envelope needs at least one symbol")
	}
	if pulse == nil {
		return nil, fmt.Errorf("modem: shaped envelope needs a pulse")
	}
	if cyclic && len(symbols) < 2*pulse.SpanSymbols() {
		return nil, fmt.Errorf("modem: cyclic stream of %d symbols shorter than pulse span %d x2",
			len(symbols), pulse.SpanSymbols())
	}
	return &ShapedEnvelope{Symbols: symbols, Pulse: pulse, Cyclic: cyclic, Gain: 1}, nil
}

// At implements sig.Envelope.
func (s *ShapedEnvelope) At(t float64) complex128 {
	ts := s.Pulse.SymbolPeriod()
	span := s.Pulse.SpanSymbols()
	n := len(s.Symbols)
	if s.Cyclic {
		// Reduce once so evaluations are bit-identical across periods;
		// without this, float rounding at the pulse truncation edge breaks
		// exact periodicity.
		period := float64(n) * ts
		t = math.Mod(t, period)
		if t < 0 {
			t += period
		}
	}
	kc := int(math.Floor(t / ts))
	var acc complex128
	for k := kc - span; k <= kc+span+1; k++ {
		idx := k
		if s.Cyclic {
			idx = ((k % n) + n) % n
		} else if k < 0 || k >= n {
			continue
		}
		p := s.Pulse.At(t - float64(k)*ts)
		if p == 0 {
			continue
		}
		acc += s.Symbols[idx] * complex(p, 0)
	}
	return acc * complex(s.Gain, 0)
}

// Duration returns the time extent of the (non-cyclic) burst including the
// pulse tails.
func (s *ShapedEnvelope) Duration() float64 {
	ts := s.Pulse.SymbolPeriod()
	return (float64(len(s.Symbols)) + 2*float64(s.Pulse.SpanSymbols())) * ts
}

// AvgPower estimates the mean envelope power E[|env|^2] by sampling nPts
// instants across one symbol-stream period (or the burst for non-cyclic).
func (s *ShapedEnvelope) AvgPower(nPts int) float64 {
	if nPts < 2 {
		nPts = 256
	}
	ts := s.Pulse.SymbolPeriod()
	var t0, t1 float64
	if s.Cyclic {
		t0, t1 = 0, float64(len(s.Symbols))*ts
	} else {
		t0 = -float64(s.Pulse.SpanSymbols()) * ts
		t1 = t0 + s.Duration()
	}
	dt := (t1 - t0) / float64(nPts)
	// The probes are independent, so they fan out over the par pool; the
	// fold stays serial in index order, keeping the estimate bit-identical
	// at any worker count.
	pw := make([]float64, nPts)
	par.ForChunks(nPts, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := s.At(t0 + (float64(i)+0.5)*dt)
			pw[i] = real(v)*real(v) + imag(v)*imag(v)
		}
	})
	p := 0.0
	for _, v := range pw {
		p += v
	}
	return p / float64(nPts)
}

// SetAvgPower rescales Gain so AvgPower becomes the target power.
func (s *ShapedEnvelope) SetAvgPower(target float64, nPts int) {
	s.Gain = 1
	p := s.AvgPower(nPts)
	if p <= 0 {
		return
	}
	s.Gain = math.Sqrt(target / p)
}
