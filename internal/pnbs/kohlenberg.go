// Package pnbs implements Periodically Nonuniform Bandpass Sampling of
// second order (Kohlenberg 1953), the mathematical core of the paper: exact
// reconstruction of a bandpass signal from two uniform sample sets f(nT) and
// f(nT+D) at the minimal per-channel rate B = 1/T, for any band location.
// It also provides the uniform bandpass sampling (PBS) baseline of Section
// II-A and the robustness bounds of Section II-B.
package pnbs

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// Band describes a real bandpass spectral support fl < |v| < fl + B.
type Band struct {
	// FLow is the lower band edge fl in Hz.
	FLow float64
	// B is the information bandwidth in Hz.
	B float64
}

// NewBand validates the band.
func NewBand(fLow, b float64) (Band, error) {
	if fLow <= 0 || b <= 0 {
		return Band{}, fmt.Errorf("pnbs: band needs positive fl and B, got %g, %g", fLow, b)
	}
	return Band{FLow: fLow, B: b}, nil
}

// FHigh returns the upper band edge fl + B.
func (b Band) FHigh() float64 { return b.FLow + b.B }

// Fc returns the band centre.
func (b Band) Fc() float64 { return b.FLow + b.B/2 }

// T returns the per-channel sampling period 1/B.
func (b Band) T() float64 { return 1 / b.B }

// K returns k = ceil(2 fl / B) from Eq. (2d).
func (b Band) K() int { return int(math.Ceil(2 * b.FLow / b.B)) }

// KPlus returns k+ = k + 1.
func (b Band) KPlus() int { return b.K() + 1 }

// IntegerPositioned reports whether 2 fl / B is an integer, the degenerate
// case where the s0 term of the kernel vanishes identically and uniform
// first-order bandpass sampling would already work.
func (b Band) IntegerPositioned() bool {
	r := 2 * b.FLow / b.B
	return math.Abs(r-math.Round(r)) < 1e-9
}

// OptimalD returns the delay minimising the kernel coefficient magnitudes,
// D = 1/(4 fc) (Vaughan et al., cited as the paper's Eq. choice in II-B.1).
func (b Band) OptimalD() float64 { return 1 / (4 * b.Fc()) }

// ForbiddenD lists the unstable delays n T / k and n T / (k+1) of Eq. (3)
// inside (0, maxD]. When the s0 term vanishes (IntegerPositioned), only the
// k+1 family applies.
func (b Band) ForbiddenD(maxD float64) []float64 {
	t := b.T()
	var out []float64
	add := func(den int) {
		for n := 1; ; n++ {
			d := float64(n) * t / float64(den)
			if d > maxD {
				return
			}
			out = append(out, d)
		}
	}
	if !b.IntegerPositioned() {
		add(b.K())
	}
	add(b.KPlus())
	return out
}

// Kernel evaluates the Kohlenberg interpolation function s(t) = s0(t)+s1(t)
// of Eq. (2) for a band and channel delay D.
type Kernel struct {
	band Band
	d    float64
	// precomputed terms
	k, kp          int
	phi0, phi1     float64 // k pi B D and k+ pi B D
	sin0, sin1     float64
	a0, b0, a1, b1 float64 // angular rates of the cosine differences
	s0Zero         bool
}

// MinSinMargin is the smallest |sin(k pi B D)| accepted before the kernel is
// declared unstable (coefficients blow up as 1/sin per Eq. 3).
const MinSinMargin = 1e-6

// NewKernel validates the stability conditions of Eq. (3) and precomputes
// the kernel terms.
func NewKernel(band Band, d float64) (*Kernel, error) {
	k, err := newKernel(band, d)
	if err != nil {
		return nil, err
	}
	return &k, nil
}

// newKernel is NewKernel by value, for callers that keep the kernel on
// the stack.
func newKernel(band Band, d float64) (Kernel, error) {
	if _, err := NewBand(band.FLow, band.B); err != nil {
		return Kernel{}, err
	}
	k := band.K()
	kp := band.KPlus()
	fl := band.FLow
	bw := band.B
	if d == 0 {
		return Kernel{}, fmt.Errorf("pnbs: delay D must be nonzero")
	}
	// Only phi0/phi1 and their sines depend on D; the angular rates and the
	// band geometry do not.
	phi0 := float64(k) * math.Pi * bw * d
	phi1 := float64(kp) * math.Pi * bw * d
	sin0 := math.Sin(phi0)
	sin1 := math.Sin(phi1)
	s0Zero := band.IntegerPositioned()
	if !s0Zero && math.Abs(sin0) < MinSinMargin {
		return Kernel{}, fmt.Errorf("pnbs: D = %g violates Eq. (3a): D ~ nT/k (sin(k pi B D) = %g)",
			d, sin0)
	}
	if math.Abs(sin1) < MinSinMargin {
		return Kernel{}, fmt.Errorf("pnbs: D = %g violates Eq. (3b): D ~ nT/(k+1) (sin(k+ pi B D) = %g)",
			d, sin1)
	}
	return Kernel{
		band:   band,
		d:      d,
		k:      k,
		kp:     kp,
		phi0:   phi0,
		phi1:   phi1,
		sin0:   sin0,
		sin1:   sin1,
		a0:     2 * math.Pi * (float64(k)*bw - fl),
		b0:     2 * math.Pi * fl,
		a1:     2 * math.Pi * (fl + bw),
		b1:     2 * math.Pi * (float64(k)*bw - fl),
		s0Zero: s0Zero,
	}, nil
}

// D returns the kernel's delay.
func (k *Kernel) D() float64 { return k.d }

// S evaluates the interpolation function s(t) of Eq. (2). The removable
// singularity at t = 0 is handled analytically; the function satisfies
// s(0) = 1 and s(mT) = 0 for integer m != 0.
func (k *Kernel) S(t float64) float64 {
	return k.s0(t) + k.s1(t)
}

// s0 implements Eq. (2b): [cos((a0)t - phi0) - cos((b0)t - phi0)] /
// (2 pi B t sin(phi0)), with its t -> 0 limit.
func (k *Kernel) s0(t float64) float64 {
	if k.s0Zero {
		return 0
	}
	num := dsp.DiffCosOverT(k.a0, -k.phi0, k.b0, -k.phi0, t)
	return num / (2 * math.Pi * k.band.B * k.sin0)
}

// s1 implements Eq. (2c) with its t -> 0 limit.
func (k *Kernel) s1(t float64) float64 {
	num := dsp.DiffCosOverT(k.a1, -k.phi1, k.b1, -k.phi1, t)
	return num / (2 * math.Pi * k.band.B * k.sin1)
}

// CoefficientMetric quantifies the kernel magnitude growth as D approaches a
// forbidden value (Section II-B.1): 1/|sin(k pi B D)| + 1/|sin(k+ pi B D)|.
// Larger values need longer, more precise reconstruction filters.
func CoefficientMetric(band Band, d float64) float64 {
	k := band.K()
	kp := band.KPlus()
	m := 0.0
	if !band.IntegerPositioned() {
		s := math.Abs(math.Sin(float64(k) * math.Pi * band.B * d))
		if s == 0 {
			return math.Inf(1)
		}
		m += 1 / s
	}
	s := math.Abs(math.Sin(float64(kp) * math.Pi * band.B * d))
	if s == 0 {
		return math.Inf(1)
	}
	return m + 1/s
}

// SpectralErrorBound returns the paper's Eq. (4) first-order bound on the
// relative spectral reconstruction error for a delay-estimate error dD:
// |dF| ~ pi B (k+1) dD.
func SpectralErrorBound(band Band, dD float64) float64 {
	return math.Pi * band.B * float64(band.KPlus()) * math.Abs(dD)
}

// DeltaDFor inverts Eq. (4): the delay accuracy needed for a target relative
// spectral error. The paper's example (fc = 1 GHz, B = 80 MHz, 1 %) gives
// ~2 ps.
func DeltaDFor(band Band, relErr float64) float64 {
	return relErr / (math.Pi * band.B * float64(band.KPlus()))
}
