package pnbs

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Options tunes the practical reconstruction filter of Eq. (6).
type Options struct {
	// HalfTaps is nw/2: the reconstruction uses nw+1 = 2*HalfTaps+1 sample
	// pairs around the evaluation instant. 0 defaults to 30 (61 taps, the
	// paper's configuration).
	HalfTaps int
	// KaiserBeta shapes the window applied to the truncated interpolation
	// series. 0 defaults to 8 (the paper's configuration); any negative
	// value selects no taper at all (a rectangular window over the filter
	// support), which a zero value cannot express because of the default.
	KaiserBeta float64
}

func (o Options) withDefaults() Options {
	if o.HalfTaps <= 0 {
		o.HalfTaps = 30
	}
	if o.KaiserBeta == 0 {
		o.KaiserBeta = 8
	}
	return o
}

// Reconstructor evaluates the truncated, Kaiser-windowed second-order
// interpolation of Eq. (6):
//
//	f(t) ~ sum_n w(t-nT) [ f(nT) s(t-nT) + f(nT+D) s(nT+D-t) ]
//
// over the nw+1 sample pairs nearest to t. The delay D used here is the
// caller's estimate D-hat; reconstruction fidelity against the true delay is
// exactly what the paper's Eq. (4) bounds and its LMS algorithm optimises.
type Reconstructor struct {
	kern  *Kernel
	t0    float64
	tStep float64
	ch0   []float64
	ch1   []float64
	opt   Options
	// win is the shared Kaiser taper table (nil for a rectangular window);
	// winScale is 1/((HalfTaps+1) T), the tap-offset normalisation.
	win      *windowLUT
	winScale float64
	// Tap-to-tap phasor rotations exp(-i a T) for the four kernel cosine
	// terms: evaluating s() across consecutive taps then needs complex
	// multiplies instead of Sincos calls (the LMS hot path). The rotation
	// angles depend only on the band, so a CostTable evaluates any
	// candidate delay of the band with them.
	rotA0, rotB0, rotA1, rotB1 complex128
	// cjA0..cjB1 are the conjugate rotations exp(+i a T) used by the
	// second (delayed-channel) kernel term, whose phase advances the other
	// way across taps. They depend only on the band, like rot*.
	cjA0, cjB0, cjA1, cjB1 complex128
}

// NewReconstructor builds a reconstructor from the two uniform sample sets:
// ch0[n] = f(t0 + nT) and ch1[n] = f(t0 + nT + D), with T = 1/band.B.
func NewReconstructor(band Band, dEst, t0 float64, ch0, ch1 []float64, opt Options) (*Reconstructor, error) {
	if len(ch0) != len(ch1) {
		return nil, fmt.Errorf("pnbs: channel lengths differ: %d vs %d", len(ch0), len(ch1))
	}
	if len(ch0) == 0 {
		return nil, fmt.Errorf("pnbs: empty capture")
	}
	kern, err := NewKernel(band, dEst)
	if err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	if len(ch0) < o.HalfTaps+1 {
		return nil, fmt.Errorf("pnbs: capture of %d samples shorter than %d half-taps",
			len(ch0), o.HalfTaps)
	}
	r := &Reconstructor{
		kern:     kern,
		t0:       t0,
		tStep:    band.T(),
		ch0:      ch0,
		ch1:      ch1,
		opt:      o,
		winScale: 1 / (float64(o.HalfTaps+1) * band.T()),
	}
	if o.KaiserBeta > 0 {
		r.win = lutFor(o.KaiserBeta)
	}
	tt := band.T()
	r.rotA0 = cis(-kern.a0 * tt)
	r.rotB0 = cis(-kern.b0 * tt)
	r.rotA1 = cis(-kern.a1 * tt)
	r.rotB1 = cis(-kern.b1 * tt)
	conj := func(c complex128) complex128 { return complex(real(c), -imag(c)) }
	r.cjA0, r.cjB0, r.cjA1, r.cjB1 = conj(r.rotA0), conj(r.rotB0), conj(r.rotA1), conj(r.rotB1)
	return r, nil
}

// cis returns exp(i theta).
func cis(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// ValidRange returns the interval of t over which the full filter support
// lies inside the capture, i.e. where reconstruction is most accurate.
func (r *Reconstructor) ValidRange() (tMin, tMax float64) {
	h := float64(r.opt.HalfTaps) * r.tStep
	return r.t0 + h, r.t0 + float64(len(r.ch0)-1)*r.tStep - h
}

// centre returns the capture index whose sample pair centres the Eq. (6)
// tap span of instant t: the nearest, ⌊(t − t0)/T + ½⌋. An instant within
// 1e-9·T of a half sample takes the upper centre, the one exact arithmetic
// rounds to, so float noise in t cannot pick the centre of a tie. Every
// evaluator of Eq. (6) centres its taps here.
func (r *Reconstructor) centre(t float64) int {
	return int(math.Floor((t-r.t0)/r.tStep + 0.5 + 1e-9))
}

// span returns the tap span [nLo, nHi] of instant t: centre(t) ± HalfTaps,
// clamped to the capture. nLo > nHi when the span misses the capture.
func (r *Reconstructor) span(t float64) (nLo, nHi int) {
	n0, h := r.centre(t), r.opt.HalfTaps
	return max(n0-h, 0), min(n0+h, len(r.ch0)-1)
}

// window evaluates the continuous Kaiser taper at normalised offset
// x = dt / ((HalfTaps+1) T), zero outside |x| >= 1. The taper value comes
// from the shared per-beta lookup table (see window.go); a nil table means
// the rectangular window (KaiserBeta < 0).
func (r *Reconstructor) window(dt float64) float64 {
	x := dt * r.winScale
	ax := x * x
	if ax >= 1 {
		return 0
	}
	if r.win == nil {
		return 1
	}
	return r.win.at(ax)
}

// At evaluates the reconstruction at time t. Sample pairs outside the
// capture are treated as zero (the signal is assumed quiescent there).
//
// The kernel cosines are evaluated by phasor recurrence across the taps
// (each tap advances every angle by a fixed amount), replacing eight
// Sincos calls per tap with complex multiplies; atReference keeps the
// direct evaluation for differential testing.
func (r *Reconstructor) At(t float64) float64 {
	nLo, nHi := r.span(t)
	if nLo > nHi {
		return 0
	}
	k := r.kern
	d := k.D()
	den0 := 2 * math.Pi * k.band.B * k.sin0
	den1 := 2 * math.Pi * k.band.B * k.sin1
	// Term A: dt0 = t - t0 - n T, stepping by -T per tap; phasors
	// z = exp(i(a dt - phi)) advance by the precomputed rotations.
	dt0 := t - r.t0 - float64(nLo)*r.tStep
	zA0 := cis(k.a0*dt0 - k.phi0)
	zB0 := cis(k.b0*dt0 - k.phi0)
	zA1 := cis(k.a1*dt0 - k.phi1)
	zB1 := cis(k.b1*dt0 - k.phi1)
	// Term B: dt1 = t0 + n T + d - t, stepping by +T per tap.
	dt1 := r.t0 + float64(nLo)*r.tStep + d - t
	yA0 := cis(k.a0*dt1 - k.phi0)
	yB0 := cis(k.b0*dt1 - k.phi0)
	yA1 := cis(k.a1*dt1 - k.phi1)
	yB1 := cis(k.b1*dt1 - k.phi1)
	cA0, cB0, cA1, cB1 := r.cjA0, r.cjB0, r.cjA1, r.cjB1

	acc := 0.0
	for n := nLo; n <= nHi; n++ {
		if w := r.window(dt0); w != 0 {
			var sv float64
			if math.Abs(dt0) < 1e-12 {
				sv = k.S(dt0)
			} else {
				if !k.s0Zero {
					sv = (real(zA0) - real(zB0)) / (den0 * dt0)
				}
				sv += (real(zA1) - real(zB1)) / (den1 * dt0)
			}
			acc += r.ch0[n] * sv * w
		}
		if w := r.window(dt1); w != 0 {
			var sv float64
			if math.Abs(dt1) < 1e-12 {
				sv = k.S(dt1)
			} else {
				if !k.s0Zero {
					sv = (real(yA0) - real(yB0)) / (den0 * dt1)
				}
				sv += (real(yA1) - real(yB1)) / (den1 * dt1)
			}
			acc += r.ch1[n] * sv * w
		}
		dt0 -= r.tStep
		zA0 *= r.rotA0
		zB0 *= r.rotB0
		zA1 *= r.rotA1
		zB1 *= r.rotB1
		dt1 += r.tStep
		yA0 *= cA0
		yB0 *= cB0
		yA1 *= cA1
		yB1 *= cB1
	}
	return acc
}

// atReference is the direct (Sincos-per-tap) evaluation kept as the
// correctness oracle for At.
func (r *Reconstructor) atReference(t float64) float64 {
	nLo, nHi := r.span(t)
	d := r.kern.D()
	acc := 0.0
	for n := nLo; n <= nHi; n++ {
		tn := r.t0 + float64(n)*r.tStep
		dt0 := t - tn
		if w := r.window(dt0); w != 0 {
			acc += r.ch0[n] * r.kern.S(dt0) * w
		}
		dt1 := tn + d - t
		if w := r.window(dt1); w != 0 {
			acc += r.ch1[n] * r.kern.S(dt1) * w
		}
	}
	return acc
}

// atTimesChunk is AtTimes' fan-out grain: one At costs 1–2 µs, so a chunk
// of 16 instants amortises the pool's per-claim cost.
const atTimesChunk = 16

// AtTimes evaluates the reconstruction at each instant. The instants are
// independent, so they fan out over the par worker pool in fixed chunks of
// atTimesChunk; element i is always At(ts[i]) regardless of the pool size.
// (The BIST measure stage evaluates its rate-B envelope through
// EnvelopeInto instead.)
func (r *Reconstructor) AtTimes(ts []float64) []float64 {
	out := make([]float64, len(ts))
	par.ForChunks(len(ts), atTimesChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = r.At(ts[i])
		}
	})
	return out
}
