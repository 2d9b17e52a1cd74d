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
	return r, nil
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

// At evaluates the reconstruction at time t, the direct sum of Eq. (6):
// Σ_n w(dt) [f(nT) s(dt0) + f(nT+D) s(dt1)] over t's tap span, each kernel
// value from Kernel.S. Sample pairs outside the capture are treated as
// zero (the signal is assumed quiescent there).
func (r *Reconstructor) At(t float64) float64 {
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

// atTimesChunk is AtTimes' fan-out grain: one At at the paper's 61 taps
// costs 11–14 µs (2-vCPU amd64 host, one worker), so a chunk of 16
// instants amortises the pool's per-claim cost many times over.
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
