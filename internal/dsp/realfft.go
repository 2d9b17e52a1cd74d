package dsp

import (
	"fmt"
	"math"
	"sync"
)

// RealPlan computes the DFT of an even-length real sequence through one
// complex transform of half the length: adjacent sample pairs pack into a
// complex vector, a length-n/2 plan transforms it, and a precomputed
// twiddle table untangles the even/odd interleave. That halves both the
// butterfly work and the memory traffic relative to widening the input to
// []complex128.
//
// Like Plan, a RealPlan is immutable, concurrency-safe and allocation-free
// in steady state. Obtain shared instances from PlanRealFFT.
type RealPlan struct {
	n       int          // full (even) transform length
	half    *Plan        // forward complex plan of size n/2
	wr      []complex128 // exp(-i 2 pi k / n) for k = 0..n/2
	scratch sync.Pool    // *[]complex128 of length n/2
}

// realPlanCache mirrors planCache for real-input plans, keyed by length.
var realPlanCache sync.Map // int -> *RealPlan

// PlanRealFFT returns the shared real-input forward plan for even length
// n >= 2, building and caching it on first use. It panics for odd or
// non-positive n; callers with odd lengths use the complex path (as
// RealFFTHalf does).
func PlanRealFFT(n int) *RealPlan {
	if n < 2 || n%2 != 0 {
		panic(fmt.Sprintf("dsp: PlanRealFFT: length %d is not even and positive", n))
	}
	if p, ok := realPlanCache.Load(n); ok {
		return p.(*RealPlan)
	}
	p := &RealPlan{n: n, half: cachedPlan(n/2, false)}
	h := n / 2
	p.wr = make([]complex128, h+1)
	for k := 0; k <= h; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.wr[k] = complex(c, s)
	}
	p.scratch.New = func() any {
		buf := make([]complex128, h)
		return &buf
	}
	got, _ := realPlanCache.LoadOrStore(n, p)
	return got.(*RealPlan)
}

// Len returns the real transform length the plan was built for.
func (p *RealPlan) Len() int { return p.n }

// HalfSpectrum writes the one-sided spectrum (bins 0..n/2 inclusive) of x
// into dst, which must have length n/2+1. For real input this is the
// whole information content; bins n/2+1..n-1 are its mirror. Zero
// allocations in steady state: x packs into a pooled half-length buffer,
// the half-size complex transform runs in place, and bins 0..n/2 are
// recombined into dst.
func (p *RealPlan) HalfSpectrum(dst []complex128, x []float64) {
	if len(x) != p.n || len(dst) != p.n/2+1 {
		panic(fmt.Sprintf("dsp: RealPlan.HalfSpectrum: lengths %d, %d do not match plan size %d",
			len(dst), len(x), p.n))
	}
	h := p.n / 2
	sp := p.scratch.Get().(*[]complex128)
	z := *sp
	for i := 0; i < h; i++ {
		z[i] = complex(x[2*i], x[2*i+1])
	}
	p.half.Execute(z)
	// With Z the half-size transform (Z[h] wrapping to Z[0]):
	//   even[k] = (Z[k] + conj(Z[h-k])) / 2        (spectrum of x[2i])
	//   odd[k]  = (Z[k] - conj(Z[h-k])) / (2i)     (spectrum of x[2i+1])
	//   X[k]    = even[k] + wr[k] * odd[k]
	for k := 0; k <= h; k++ {
		zk := z[k%h]
		zc := conj(z[(h-k)%h])
		even := (zk + zc) * 0.5
		od := (zk - zc) * complex(0, -0.5)
		dst[k] = even + p.wr[k]*od
	}
	p.scratch.Put(sp)
}
