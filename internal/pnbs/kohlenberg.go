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
// of Eq. (2) for a band and channel delay D. Each term's cosine pair,
// cos(a_q t − φ_q) − cos(b_q t − φ_q), is held in its exact product form
// −2 sin(κ_q t − φ_q) sin(β_q t), with κ_q = (a_q + b_q)/2 and
// β_q = (a_q − b_q)/2: the difference cancels near a sample, the product
// does not.
type Kernel struct {
	band Band
	d    float64
	k    int
	// phi[q] is φ_q = k_q π B D (k_0 = k, k_1 = k+1), sin[q] its sine.
	phi, sin [2]float64
	// kappa[q] and beta[q] are κ_q and β_q; they depend only on the band.
	kappa, beta [2]float64
	s0Zero      bool
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
	// The angular rates of Eq. (2b) and (2c): a0, b0 and a1, b1.
	a0, b0 := 2*math.Pi*(float64(k)*bw-fl), 2*math.Pi*fl
	a1, b1 := 2*math.Pi*(fl+bw), 2*math.Pi*(float64(k)*bw-fl)
	return Kernel{
		band:   band,
		d:      d,
		k:      k,
		phi:    [2]float64{phi0, phi1},
		sin:    [2]float64{sin0, sin1},
		kappa:  [2]float64{(a0 + b0) / 2, (a1 + b1) / 2},
		beta:   [2]float64{(a0 - b0) / 2, (a1 - b1) / 2},
		s0Zero: s0Zero,
	}, nil
}

// D returns the kernel's delay.
func (k *Kernel) D() float64 { return k.d }

// S evaluates the interpolation function s(t) of Eq. (2), each term in
// product form: s_q(t) = −2 sin(κ_q t − φ_q)·sin(β_q t)/t / (2π B sin φ_q).
// The removable singularity at t = 0 takes the limit sin(β_q t)/t → β_q;
// the function satisfies s(0) = 1 and s(mT) = 0 for integer m != 0.
func (k *Kernel) S(t float64) float64 {
	s := 0.0
	for q := range k.phi {
		if q == 0 && k.s0Zero {
			continue
		}
		s += -2 * math.Sin(k.kappa[q]*t-k.phi[q]) * sinOverT(k.beta[q], t) /
			(2 * math.Pi * k.band.B * k.sin[q])
	}
	return s
}

// sinOverT returns sin(β·t)/t, with its limit β at t = 0.
func sinOverT(beta, t float64) float64 {
	if t == 0 {
		return beta
	}
	return math.Sin(beta*t) / t
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
