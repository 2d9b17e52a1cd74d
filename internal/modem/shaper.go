package modem

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/par"
)

// ShapedEnvelope is the continuous complex envelope of a pulse-shaped symbol
// stream: env(t) = sum_k a[k mod n] p(t - k Ts). The symbol index wraps
// modulo the stream length, making the process defined (and cyclo-
// stationary) for all t — convenient for long PSD captures from a finite
// symbol memory, exactly like a looping arbitrary waveform generator.
type ShapedEnvelope struct {
	Symbols []complex128
	Pulse   *SRRC
	// Gain scales the envelope (1 = unscaled).
	Gain float64
}

// NewShapedEnvelope validates and builds a shaped envelope with unit gain.
func NewShapedEnvelope(symbols []complex128, pulse *SRRC) (*ShapedEnvelope, error) {
	if len(symbols) == 0 {
		return nil, fmt.Errorf("modem: shaped envelope needs at least one symbol")
	}
	if pulse == nil {
		return nil, fmt.Errorf("modem: shaped envelope needs a pulse")
	}
	if len(symbols) < 2*pulse.Span {
		return nil, fmt.Errorf("modem: cyclic stream of %d symbols shorter than pulse span %d x2",
			len(symbols), pulse.Span)
	}
	return &ShapedEnvelope{Symbols: symbols, Pulse: pulse, Gain: 1}, nil
}

// At implements sig.Envelope. With y = t/Ts after the cyclic reduction,
// kc = floor(y) and f = y - kc, the 2*Span live taps are the symbols kc-m
// at x = m + f (m = 0..Span-1) and kc+m at x = -(m - f) (m = 1..Span).
// Every tap reads the same phase of the pulse's polyphase table: the
// right-hand taps at s in their cell, the left-hand taps at -s in the
// mirrored cell. No tap needs trig or a division.
func (s *ShapedEnvelope) At(t float64) complex128 {
	ts := s.Pulse.Ts
	span := s.Pulse.Span
	n := len(s.Symbols)
	// Reduce once so evaluations are bit-identical across periods. Mod is
	// exact, and the identity on [0, period), where most probes fall; it
	// returns NaN for a NaN or infinite t, which has no tap to index.
	period := float64(n) * ts
	if !(t >= 0 && t < period) {
		t = math.Mod(t, period)
		if t < 0 {
			t += period
		}
		if math.IsNaN(t) {
			return cmplx.NaN()
		}
	}
	y := t / ts
	kc := math.Floor(y)
	// y - kc is exact and tableCells a power of two, so the phase
	// split is exact too.
	g := (y - kc) * tableCells
	cell := math.Floor(g)
	u := 2*(g-cell) - 1
	right := s.Pulse.table[int(cell):]
	left := s.Pulse.table[tableCells-1-int(cell):]
	// kc <= n: y rounds up to n only just below the period.
	k0 := int(kc) % n
	var re, im float64
	for m, k := 0, k0; m < span; m++ {
		p := horner(&right[m*tableCells], u)
		re += real(s.Symbols[k]) * p
		im += imag(s.Symbols[k]) * p
		if k--; k < 0 {
			k += n
		}
	}
	for m, k := 0, k0; m < span; m++ {
		if k++; k == n {
			k = 0
		}
		p := horner(&left[m*tableCells], -u)
		re += real(s.Symbols[k]) * p
		im += imag(s.Symbols[k]) * p
	}
	return complex(re*s.Gain, im*s.Gain)
}

// AvgPower estimates the mean envelope power E[|env|^2] by sampling nPts
// instants across one symbol-stream period.
func (s *ShapedEnvelope) AvgPower(nPts int) float64 {
	if nPts < 2 {
		nPts = 256
	}
	dt := float64(len(s.Symbols)) * s.Pulse.Ts / float64(nPts)
	// The probes are independent, so they fan out over the par pool; the
	// fold stays serial in index order, keeping the estimate bit-identical
	// at any worker count.
	pw := make([]float64, nPts)
	par.ForChunks(nPts, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := s.At((float64(i) + 0.5) * dt)
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
