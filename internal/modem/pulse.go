package modem

import (
	"fmt"
	"math"
)

// SRRC is the square-root raised cosine pulse with roll-off Alpha used by
// the paper's test signal (alpha = 0.5, 10 MHz symbol rate). The pulse is
// normalised to unit peak: At(0) = 1.
type SRRC struct {
	Ts    float64 // symbol period, seconds
	Alpha float64 // roll-off in (0, 1]
	Span  int     // one-sided truncation span in symbols
	peak  float64
	// x0 = 1/(4 Alpha) is the removable singularity; near[k] is the
	// Taylor coefficient of order k+1 of the numerator there, whose
	// order-0 term vanishes with the denominator's.
	x0   float64
	near [nearTerms]float64
	// table is the shared polyphase tabulation ShapedEnvelope evaluates.
	table pulseTable
}

const (
	// nearBand is the half-width, in symbol periods, of the band around
	// |x| = 1/(4 Alpha) where raw divides two Taylor series instead of
	// evaluating the textbook quotient, which cancels there: at 5e-9 from
	// the singularity the quotient is off by ~8e-9.
	nearBand = 2e-2
	// nearTerms numerator terms bound the series' truncation by
	// (2*pi*nearBand)^12/12! < 1e-19 at any Alpha.
	nearTerms = 12
)

// NewSRRC builds an SRRC pulse; span <= 0 defaults to 8 symbols. The
// pulse's polyphase table is built on the first call for each
// (alpha, span) and shared by every later one.
func NewSRRC(ts, alpha float64, span int) (*SRRC, error) {
	if !(ts > 0) {
		return nil, fmt.Errorf("modem: SRRC: Ts %g must be positive", ts)
	}
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("modem: SRRC: alpha %g outside (0, 1]", alpha)
	}
	if span <= 0 {
		span = 8
	}
	p := &SRRC{Ts: ts, Alpha: alpha, Span: span, peak: 1, x0: 1 / (4 * alpha)}
	p.near = nearSeries(alpha, p.x0)
	p.peak = p.raw(0)
	p.table = tableFor(p)
	return p, nil
}

// nearSeries returns the Taylor coefficients of orders 1..nearTerms, at
// x0 = 1/(4a), of the SRRC numerator N(x) = sin(Ax) + 4ax cos(Bx) with
// A = pi(1-a), B = pi(1+a): N^(k) = A^k sin(Ax + k pi/2) +
// 4a (x B^k cos(Bx + k pi/2) + k B^(k-1) cos(Bx + (k-1) pi/2)).
func nearSeries(a, x0 float64) [nearTerms]float64 {
	A, B := math.Pi*(1-a), math.Pi*(1+a)
	sA, cA := math.Sincos(A * x0)
	sB, cB := math.Sincos(B * x0)
	// sin and cos of theta + k pi/2 cycle with period 4.
	sinA := [4]float64{sA, cA, -sA, -cA}
	cosB := [4]float64{cB, -sB, -cB, sB}
	var n [nearTerms]float64
	fact, powA, powB := 1.0, 1.0, 1.0 // running k!, A^k and B^(k-1)
	for k := 1; k <= nearTerms; k++ {
		fact *= float64(k)
		powA *= A
		d := powA*sinA[k%4] + 4*a*(x0*powB*B*cosB[k%4]+float64(k)*powB*cosB[(k-1)%4])
		n[k-1] = d / fact
		powB *= B
	}
	return n
}

// raw evaluates the textbook unit-energy SRRC expression (up to a
// constant) at x = t/Ts.
func (p *SRRC) raw(x float64) float64 {
	a := p.Alpha
	// Removable singularity at x = +-1/(4a); the quotient is even, so
	// d = |x| - x0. N and D = pi x (1 - 16 a^2 x^2) =
	// d (-2 pi - 12 pi a d - 16 pi a^2 d^2) share the root d = 0; divided
	// by d, both are sums with no cancellation.
	if d := math.Abs(x) - p.x0; math.Abs(d) < nearBand {
		if d == 0 {
			return a / math.Sqrt2 * ((1+2/math.Pi)*math.Sin(math.Pi/(4*a)) +
				(1-2/math.Pi)*math.Cos(math.Pi/(4*a)))
		}
		num := 0.0
		for k := nearTerms - 1; k >= 0; k-- {
			num = num*d + p.near[k]
		}
		return num / (-2*math.Pi - d*(12*math.Pi*a+16*math.Pi*a*a*d))
	}
	if math.Abs(x) < 1e-10 {
		return 1 - a + 4*a/math.Pi
	}
	num := math.Sin(math.Pi*x*(1-a)) + 4*a*x*math.Cos(math.Pi*x*(1+a))
	den := math.Pi * x * (1 - 16*a*a*x*x)
	return num / den
}

// edgeTaper smoothly truncates a pulse at x = t/Ts: 1 inside (span-1)
// symbol periods, a raised-cosine roll-off across the final period and
// exactly 0 beyond the span. Continuous truncation keeps pulse-shaped
// envelopes exactly periodic under cyclic extension (a hard edge is
// ulp-sensitive to time rounding).
func edgeTaper(x float64, span int) float64 {
	x = math.Abs(x)
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

// At evaluates the pulse at time t (seconds), centred at t = 0:
// peak-normalised and smoothly truncated to the span. It is the analytic
// form the polyphase table is fitted from, and the matched filter's pulse.
func (p *SRRC) At(t float64) float64 { return p.atX(t / p.Ts) }

// atX is At in symbol periods, x = t/Ts.
func (p *SRRC) atX(x float64) float64 {
	w := edgeTaper(x, p.Span)
	if w == 0 {
		return 0
	}
	return w * p.raw(x) / p.peak
}

// PulseEnergy numerically integrates p^2 over its support (for matched
// filter normalisation), using oversample points per symbol period.
func PulseEnergy(p *SRRC, oversample int) float64 {
	if oversample < 2 {
		oversample = 16
	}
	v, dt := pulseSamples(p, oversample)
	e := 0.0
	for _, x := range v {
		e += x * x * dt
	}
	return e
}

// pulseSamples returns the pulse on the integer grid x_i = (i − nh)·dt,
// i = 0..2nh, with nh = Span·oversample and dt = Ts/oversample: each
// instant is one multiplication, so the taps sit exactly on the grid and
// their count does not depend on rounding.
func pulseSamples(p *SRRC, oversample int) (v []float64, dt float64) {
	dt = p.Ts / float64(oversample)
	nh := p.Span * oversample
	v = make([]float64, 2*nh+1)
	for i := range v {
		v[i] = p.At(float64(i-nh) * dt)
	}
	return v, dt
}
