package pnbs

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/par"
)

// This file implements the measure stage's complex envelope at rate B as
// one complex FIR over the two capture channels. The oracle is the path it
// composes: the oversampled grid of EnvelopeGridInto at fs = over·B, each
// instant mixed down by its own phasor, then dsp.DecimationLowpass(over)'s
// Decimate.
//
// Decimated output k reads grid instants m = k·over + e, e = d − j, for the
// lowpass taps j (d is the centre tap). Writing e = a·over + p with phase
// p = e mod over, instant m is period k + a of phase p, so its taps start
// at capture sample lo[p] + a + k and carry the phase row a0/a1[p]. The
// mixer factorises, exp(−iω·t_m) = exp(−iω(t0 + k/B))·exp(−iω·e/fs), so
//
//	out[k] = exp(−iω(t0 + k/B)) · Σ_n C0[n]·ch0[base+k+n] + C1[n]·ch1[base+k+n],
//	C_c[lo[p] + a + i − base] = Σ 2·h[j]·exp(−iω·e/fs)·a_c[p][i],
//
// summed over the lowpass taps j and the phase taps i. The tables do not
// depend on k: at the paper's geometry (over 4, 91 lowpass taps, 61 phase
// taps) they hold 84 complex taps per channel, in place of 91 grid
// instants of 61 taps each. This is an exact recomposition of Eq. (6) and
// the decimator, so an output agrees with the oracle to rounding.
//
// An output whose 91 instants do not all lie inside the grid — ~11 at each
// end, where Decimate zero-pads — or include an instant the phase tables
// decline (a clamped span or an off-pattern centre) keeps the oracle path:
// its instants are mixed one by one and summed by dsp's own DecimateAt, so
// its bits are the oracle's.

// envTables is the composite FIR of one grid: output k's sum starts at
// capture sample base + k.
type envTables struct {
	base int
	// r0/i0 and r1/i1 are the real and imaginary parts of C0 and C1.
	r0, i0, r1, i1 []float64
}

// buildEnvTables folds the phase rows of g, the per-instant mixer phases
// around fc and the lowpass taps into the composite tables. Each entry is
// summed in one fixed order, so the tables never depend on the worker count.
func (r *Reconstructor) buildEnvTables(g *gridPrep, taps []float64, fc, fs float64) *envTables {
	nt := 2*r.opt.HalfTaps + 1
	d := (len(taps) - 1) / 2
	// phaseOf splits e = d − j into its phase p and the capture offset
	// lo[p] + a of its taps' start.
	phaseOf := func(j int) (p, off int) {
		e := d - j
		p = ((e % g.over) + g.over) % g.over
		return p, g.lo[p] + (e-p)/g.over
	}
	lo, hi := math.MaxInt, math.MinInt
	for j := range taps {
		_, off := phaseOf(j)
		lo, hi = min(lo, off), max(hi, off)
	}
	nc := hi - lo + nt
	e := &envTables{base: lo, r0: make([]float64, nc), i0: make([]float64, nc),
		r1: make([]float64, nc), i1: make([]float64, nc)}
	for j, h := range taps {
		p, off := phaseOf(j)
		s, co := math.Sincos(2 * math.Pi * fc * float64(d-j) / fs)
		wr, wi := 2*h*co, -2*h*s
		a0 := g.a0[p*nt:][:nt]
		a1 := g.a1[p*nt:][:nt]
		r0, i0 := e.r0[off-lo:][:nt], e.i0[off-lo:][:nt]
		r1, i1 := e.r1[off-lo:][:nt], e.i1[off-lo:][:nt]
		for i := range a0 {
			r0[i] += wr * a0[i]
			i0[i] += wi * a0[i]
			r1[i] += wr * a1[i]
			i1[i] += wi * a1[i]
		}
	}
	return e
}

// at returns output k's tap sum, before its phasor. Four accumulators, one
// per channel and part, keep the adds independent; the sum's order is
// fixed, so the result is too.
func (e *envTables) at(ch0, ch1 []float64, k int) complex128 {
	x0 := ch0[e.base+k:][:len(e.r0)]
	x1 := ch1[e.base+k:][:len(x0)]
	r0, i0, r1, i1 := e.r0[:len(x0)], e.i0[:len(x0)], e.r1[:len(x0)], e.i1[:len(x0)]
	var sr0, si0, sr1, si1 float64
	for n, v := range x0 {
		w := x1[n]
		sr0 += r0[n] * v
		si0 += i0[n] * v
		sr1 += r1[n] * w
		si1 += i1[n] * w
	}
	return complex(sr0+sr1, si0+si1)
}

// envChunk is the number of composite outputs one par task computes (an
// output costs ~0.2 µs, so a task is large next to one pool claim).
const envChunk = 64

// EnvelopeInto evaluates the complex envelope around fc at rate fsEnv on
// the grid t_k = t0 + k/fsEnv for k < len(out): the reconstruction
// oversampled by over = dsp.EnvelopeOversampling(fc, fsEnv), mixed down,
// lowpass filtered by dsp.DecimationLowpass(over) against the 2fc image and
// decimated back to fsEnv. It equals EnvelopeGridInto at over·fsEnv
// followed by Decimate, its oracle, within rounding (1e-10 of the peak);
// outputs whose filter reaches past the grid's ends are the oracle's bits.
// When fsEnv is the capture rate the composite tables above compute it;
// otherwise the whole grid goes through the oracle. Each output is one
// serial sum and the outputs fan out over the par pool, so out is identical
// at any worker count. It fails only when no oversampling factor separates
// the 2fc image.
func (r *Reconstructor) EnvelopeInto(fc, t0, fsEnv float64, out []complex128) error {
	over, ok := dsp.EnvelopeOversampling(fc, fsEnv)
	if !ok {
		return fmt.Errorf("pnbs: no oversampling factor separates the 2fc image (fc %g, rate %g)", fc, fsEnv)
	}
	lp, err := dsp.DecimationLowpass(over)
	if err != nil {
		return err
	}
	fs := fsEnv * float64(over)
	nGrid := len(out) * over
	g := r.buildGridPrep(t0, fs)
	if g == nil || g.over != over {
		raw := make([]complex128, nGrid)
		r.EnvelopeGridInto(fc, t0, fs, raw)
		copy(out, lp.Decimate(raw, over))
		return nil
	}
	taps := lp.Taps
	d := (len(taps) - 1) / 2
	// Output k reads instants [k·over + d − (len(taps)−1), k·over + d].
	// oracle marks the outputs whose instants leave the grid or include
	// one the phase tables decline.
	oracle := make([]bool, len(out))
	for k := range oracle {
		oracle[k] = k*over+d-(len(taps)-1) < 0 || k*over+d >= nGrid
	}
	// Instant m is regular when its centre is E(m) = lo[p] + q + h (phase
	// p, period q; E omits h below) and its span is not clamped. The centre is
	// non-decreasing in m, since every float step from m to it is, so on a
	// run of instants with one E it is E throughout when it is E at both
	// ends, and the clamps, which follow the centre, hold throughout too.
	// Checking the two ends of each run therefore checks every instant.
	regular := func(m int) bool {
		_, ok := g.regular(r, m, t0+float64(m)/fs)
		return ok
	}
	// m0 starts the run of E e0; instant m is period q, phase p.
	m0, e0 := 0, g.lo[0]
	for m, p, q := 1, 1, 0; m <= nGrid; m, p = m+1, p+1 {
		if p == over {
			p, q = 0, q+1
		}
		if m < nGrid && g.lo[p]+q == e0 {
			continue
		}
		if !regular(m0) || !regular(m-1) {
			kLo := max(0, (m0-d+over-1)/over)
			kHi := min(len(out)-1, (m-1-d+len(taps)-1)/over)
			for k := kLo; k <= kHi; k++ {
				oracle[k] = true
			}
		}
		if m < nGrid {
			m0, e0 = m, g.lo[p]+q
		}
	}
	// One task per maximal run of oracle outputs, and composite runs in
	// envChunk pieces.
	type task struct {
		lo, hi int
		oracle bool
	}
	var tasks []task
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && oracle[hi] == oracle[lo] && (oracle[lo] || hi-lo < envChunk) {
			hi++
		}
		tasks = append(tasks, task{lo, hi, oracle[lo]})
		lo = hi
	}
	e := r.buildEnvTables(g, taps, fc, fs)
	// The phasor exp(−iω·t_k) advances by rot per output from a direct
	// evaluation at each task's first output.
	rot := cis(-2 * math.Pi * fc / fsEnv)
	par.For(len(tasks), func(ti int) {
		tk := tasks[ti]
		if tk.oracle {
			mLo := max(0, tk.lo*over+d-(len(taps)-1))
			mHi := min(nGrid, (tk.hi-1)*over+d+1)
			raw := make([]complex128, mHi-mLo)
			for i := range raw {
				raw[i] = r.gridMix(g, fc, t0, fs, mLo+i)
			}
			for k := tk.lo; k < tk.hi; k++ {
				out[k] = lp.DecimateAt(raw, mLo, nGrid, over, k)
			}
			return
		}
		ph := cis(-2 * math.Pi * fc * (t0 + float64(tk.lo)/fsEnv))
		for k := tk.lo; k < tk.hi; k++ {
			out[k] = e.at(r.ch0, r.ch1, k) * ph
			ph *= rot
		}
	})
	return nil
}

// cis returns exp(i theta).
func cis(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}
