package modem

import (
	"fmt"
	"math"
)

// Pulse is a continuous-time pulse-shaping filter impulse response.
type Pulse interface {
	// At evaluates the pulse at time t (seconds), centred at t = 0.
	At(t float64) float64
	// SymbolPeriod returns Ts.
	SymbolPeriod() float64
	// SpanSymbols returns the one-sided truncation span in symbol periods:
	// the pulse is treated as zero for |t| > SpanSymbols * Ts.
	SpanSymbols() int
}

// SRRC is the square-root raised cosine pulse with roll-off Alpha used by
// the paper's test signal (alpha = 0.5, 10 MHz symbol rate). The pulse is
// normalised to unit peak: At(0) = 1.
type SRRC struct {
	Ts    float64 // symbol period, seconds
	Alpha float64 // roll-off in (0, 1]
	Span  int     // one-sided truncation span in symbols
	peak  float64
}

// NewSRRC builds an SRRC pulse; span <= 0 defaults to 8 symbols.
func NewSRRC(ts, alpha float64, span int) (*SRRC, error) {
	if ts <= 0 {
		return nil, fmt.Errorf("modem: SRRC: Ts %g must be positive", ts)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("modem: SRRC: alpha %g outside (0, 1]", alpha)
	}
	if span <= 0 {
		span = 8
	}
	p := &SRRC{Ts: ts, Alpha: alpha, Span: span, peak: 1}
	p.peak = p.raw(0)
	return p, nil
}

// raw evaluates the textbook unit-energy SRRC expression (up to a constant).
func (p *SRRC) raw(t float64) float64 {
	x := t / p.Ts
	a := p.Alpha
	// Singularity at x = +-1/(4a).
	if q := math.Abs(4 * a * x); math.Abs(q-1) < 1e-8 {
		return a / math.Sqrt2 * ((1+2/math.Pi)*math.Sin(math.Pi/(4*a)) +
			(1-2/math.Pi)*math.Cos(math.Pi/(4*a)))
	}
	if math.Abs(x) < 1e-10 {
		return 1 - a + 4*a/math.Pi
	}
	num := math.Sin(math.Pi*x*(1-a)) + 4*a*x*math.Cos(math.Pi*x*(1+a))
	den := math.Pi * x * (1 - 16*a*a*x*x)
	return num / den
}

// edgeTaper smoothly truncates a pulse: 1 inside (span-1) symbol periods,
// a raised-cosine roll-off across the final period and exactly 0 beyond the
// span. Continuous truncation keeps pulse-shaped envelopes exactly periodic
// under cyclic extension (a hard edge is ulp-sensitive to time rounding).
func edgeTaper(t, ts float64, span int) float64 {
	x := math.Abs(t) / ts
	edge := float64(span)
	switch {
	case x >= edge:
		return 0
	case x <= edge-1:
		return 1
	default:
		return 0.5 * (1 + math.Cos(math.Pi*(x-edge+1)))
	}
}

// At implements Pulse (peak-normalised, smoothly truncated to the span).
func (p *SRRC) At(t float64) float64 {
	w := edgeTaper(t, p.Ts, p.Span)
	if w == 0 {
		return 0
	}
	return w * p.raw(t) / p.peak
}

// SymbolPeriod implements Pulse.
func (p *SRRC) SymbolPeriod() float64 { return p.Ts }

// SpanSymbols implements Pulse.
func (p *SRRC) SpanSymbols() int { return p.Span }

// PulseEnergy numerically integrates p^2 over its support (for matched
// filter normalisation), using oversample points per symbol period.
func PulseEnergy(p Pulse, oversample int) float64 {
	if oversample < 2 {
		oversample = 16
	}
	ts := p.SymbolPeriod()
	dt := ts / float64(oversample)
	span := float64(p.SpanSymbols()) * ts
	e := 0.0
	for t := -span; t <= span; t += dt {
		v := p.At(t)
		e += v * v * dt
	}
	return e
}
