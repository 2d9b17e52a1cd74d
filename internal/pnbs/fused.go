package pnbs

import (
	"math"

	"repro/internal/par"
)

// This file implements the reassociated fused evaluation path of the Eq. (6)
// reconstructor: the estimate-stage hot kernel behind skew.Cost. Unlike
// At, whose per-tap operation sequence is the reference, the fused path is
// allowed to reassociate — its contract is numerical equivalence within
// tolerance (|fused − serial|/serial <= 1e-9 on the cost), the same contract
// real-time TIADC correction hardware applies when it pipelines these FIR
// folds. That freedom is what lets the prompt-channel tap fold collapse to
// O(1) work per instant per candidate delay:
//
// Write the kernel phase terms as cos(a·dt − φ) = cos(a·dt)cos φ +
// sin(a·dt)sin φ. For the prompt channel the offsets dt0 = t − nT are
// delay-independent, so each instant's whole tap fold contracts to four
// scalars built once per instant block (CostTable),
//
//	pc = Σ_j ch0[j]·w(dt0_j)·(cos(a·dt0_j) − cos(b·dt0_j))/dt0_j
//	ps = Σ_j ch0[j]·w(dt0_j)·(sin(a·dt0_j) − sin(b·dt0_j))/dt0_j
//
// per phase pair (a0,b0) and (a1,b1), and the per-candidate evaluation is
// just (pc·cot φ + ps)/(2πB) — only cot φ0 and cot φ1 depend on the delay,
// and they come from the candidate's Kernel. Taps with
// |dt0| below the dsp.DiffCosOverT Taylor threshold contribute their series
// limit (pc term dt·(b²−a²)/2, ps term (a−b)), which is linear in cot φ in
// exactly the same way, so the contraction survives the removable
// singularity.
//
// The delayed channel's offsets dt1 = nT + D − t move with the candidate, so
// each candidate runs a tap loop per instant — but over four real Chebyshev
// cosine recurrences in place of At's eight complex phasors (the prompt
// ones are gone, and only real parts are consumed), with the two kernel
// divisions merged into one: s(dt1) = ((cA0 − cB0)·inv0 + (cA1 − cB1)·inv1)/dt1
// with inv = 1/(2πB·sin φ) hoisted per candidate.
//
// On AVX2 hosts both tap loops — this one and CostTable's — run four
// instants per instruction, bit-identical to the Go loops below
// (fusedvec.go, fused_amd64.s).
//
// CostFused fuses the residual-power fold of skew.Cost into the same pass:
// both reconstructions of an instant are produced back to back and only the
// squared difference is accumulated, so samples never round-trip through
// memory. Callers obtain worker-count-invariant totals by evaluating
// fixed-size chunks (par.ForChunks) and folding the per-chunk partials in
// chunk order — blocked summation, which also bounds rounding growth.

// fusedTaylorEps matches the |t| threshold below which dsp.DiffCosOverT
// switches to its series expansion; the prepared tables use the same branch
// point so the fused values track the serial kernel across it.
const fusedTaylorEps = 1e-13

// fusedRow is the per-instant state of the fused path: the prompt-channel
// fold contracted to four delay-independent scalars plus the delayed-channel
// tap-span geometry.
type fusedRow struct {
	// nLo is the first capture index of the tap span (clamped like At);
	// cnt is the tap count, zero for instants outside the capture.
	nLo, cnt int32
	// dtdStart is t0 + nLo·T − t: the first delayed-channel offset at eval
	// time is dt1 = dtdStart + D, associating the delay in last so the
	// prepared part stays delay-independent.
	dtdStart float64
	// pc0/ps0 and pc1/ps1 are the contracted prompt-channel folds for the
	// (a0,b0) and (a1,b1) phase pairs.
	pc0, ps0, pc1, ps1 float64
}

// CostTable is the immutable prepared form of one reconstructor over one
// instant block for the fused cost path: the prompt-channel tap folds
// contracted to delay-independent scalars, plus the delayed-channel tap
// geometry. The candidate delay enters only at evaluation, as a *Kernel of
// the same band (CostFused), so one table serves every candidate delay of
// the LMS search and concurrent evaluations share nothing mutable.
type CostTable struct {
	r    *Reconstructor
	rows []fusedRow
}

// costTableChunk is the instant count per pool task of CostTable. A row
// costs ~60 taps of four Sincos pairs, so a cost block of a few hundred
// instants still splits into enough tasks to balance the pool.
const costTableChunk = 16

// CostTable contracts the prompt-channel tap folds of r over the instants
// ts. The rows are independent per instant, so they are built over the par
// pool; each row's tap fold stays serial, so the table is identical at any
// worker count. The tap geometry (span, dt0 accumulation by repeated
// subtraction) is At's; the trig is evaluated by direct Sincos
// per tap — the table is built once per (capture, instants) and its
// accuracy feeds every candidate, where the cost fold's cancellation
// amplifies table error by ~1e6: a phasor recurrence here (tried) costs
// ~4e-9 on the cost and busts the 1e-9 oracle contract. The angular rates
// used here depend only on the band, so the table does not depend on r's
// delay. Groups of four full-span rows go to the vector encoding of the
// fold where the CPU has one (costRowsVector); it is bit-identical to
// costRowFold, so the table does not depend on the CPU either.
func (r *Reconstructor) CostTable(ts []float64) *CostTable {
	tab := &CostTable{r: r, rows: make([]fusedRow, len(ts))}
	vec := r.costRowsVectorOK()
	par.ForChunks(len(ts), costTableChunk, func(lo, hi int) {
		rows, ts := tab.rows[lo:hi], ts[lo:hi]
		for i := range rows {
			r.costRowSpan(&rows[i], ts[i])
		}
		for i := 0; i < len(rows); i += 4 {
			g := rows[i:min(i+4, len(rows))]
			if vec && len(g) == 4 && r.costRowsVector(g, ts[i:i+4]) {
				continue
			}
			for j := range g {
				r.costRowFold(&g[j], ts[i+j])
			}
		}
	})
	return tab
}

// costRowSpan sets the tap-span geometry of the row of instant t; an
// out-of-capture instant keeps cnt = 0 (its fused value is 0).
func (r *Reconstructor) costRowSpan(row *fusedRow, t float64) {
	nLo, nHi := r.span(t)
	if nLo > nHi {
		return
	}
	row.nLo = int32(nLo)
	row.cnt = int32(nHi - nLo + 1)
	row.dtdStart = r.t0 + float64(nLo)*r.tStep - t
}

// costRowFold contracts the prompt-channel tap fold of the row of instant
// t. k.b1 == k.a0 bit for bit (NewKernel builds both from one
// expression), so the (a1, b1) pair reuses the a0 Sincos.
func (r *Reconstructor) costRowFold(row *fusedRow, t float64) {
	k := r.kern
	dt0 := t - r.t0 - float64(row.nLo)*r.tStep
	for _, c := range r.ch0[row.nLo:][:row.cnt] {
		if w := r.window(dt0); w != 0 {
			cw := c * w
			if math.Abs(dt0) < fusedTaylorEps {
				// Series limit of (cos(a·dt)−cos(b·dt))/dt and
				// (sin(a·dt)−sin(b·dt))/dt, matching DiffCosOverT's
				// expansion to the same order.
				row.pc0 += cw * dt0 * 0.5 * (k.b0*k.b0 - k.a0*k.a0)
				row.ps0 += cw * (k.a0 - k.b0)
				row.pc1 += cw * dt0 * 0.5 * (k.b1*k.b1 - k.a1*k.a1)
				row.ps1 += cw * (k.a1 - k.b1)
			} else {
				inv := cw / dt0
				sA0, cA0 := math.Sincos(k.a0 * dt0)
				sB, cB := math.Sincos(k.b0 * dt0)
				row.pc0 += (cA0 - cB) * inv
				row.ps0 += (sA0 - sB) * inv
				sA, cA := math.Sincos(k.a1 * dt0)
				row.pc1 += (cA - cA0) * inv
				row.ps1 += (sA - sA0) * inv
			}
		}
		dt0 -= r.tStep
	}
}

// fusedEval is the per-candidate evaluation context: a table, the
// candidate's kernel and the handful of delay-dependent scalars hoisted
// out of the instant loop.
type fusedEval struct {
	r       *Reconstructor
	rows    []fusedRow
	k       *Kernel
	inv2piB float64
	// cot0/cot1 contract the prompt-channel tables; inv0/inv1 merge the
	// delayed-channel kernel denominators into one division per tap.
	cot0, cot1 float64
	inv0, inv1 float64
	// vec holds the candidate's scalars for the vector tap kernel; vec.n,
	// the full tap span it runs, is 0 when this candidate stays on the Go
	// loop (no AVX2, an s0Zero band or no taper).
	vec tapConst
}

// eval hoists the scalars of candidate kernel k, which must be of the
// table's band, out of the instant loop.
func (tab *CostTable) eval(k *Kernel) fusedEval {
	r := tab.r
	e := fusedEval{r: r, rows: tab.rows, k: k, inv2piB: 1 / (2 * math.Pi * k.band.B)}
	e.cot1 = math.Cos(k.phi1) / k.sin1
	e.inv1 = e.inv2piB / k.sin1
	if !k.s0Zero {
		e.cot0 = math.Cos(k.phi0) / k.sin0
		e.inv0 = e.inv2piB / k.sin0
	}
	if useAVX2 && !k.s0Zero && r.win != nil {
		e.vec = tapConst{
			seed: [4][4]float64{
				{k.a0, k.phi0, real(r.cjA0), imag(r.cjA0)},
				{k.b0, k.phi0, real(r.cjB0), imag(r.cjB0)},
				{k.a1, k.phi1, real(r.cjA1), imag(r.cjA1)},
				{k.b1, k.phi1, real(r.cjB1), imag(r.cjB1)},
			},
			rec:      [4]float64{2 * real(r.cjA0), 2 * real(r.cjB0), 2 * real(r.cjA1), 2 * real(r.cjB1)},
			winScale: r.winScale,
			lutInv:   r.win.inv,
			tStep:    r.tStep,
			inv0:     e.inv0,
			inv1:     e.inv1,
			coef:     &r.win.coef[0],
			n:        2*r.opt.HalfTaps + 1,
		}
	}
	return e
}

// prompt is the prompt-channel value of a row: the whole tap fold is the
// prepared contraction against the two delay-dependent cotangents.
func (e *fusedEval) prompt(row *fusedRow) float64 {
	if e.k.s0Zero {
		return (row.pc1*e.cot1 + row.ps1) * e.inv2piB
	}
	return ((row.pc0*e.cot0 + row.ps0) + (row.pc1*e.cot1 + row.ps1)) * e.inv2piB
}

// at evaluates instant i of the table at the candidate kernel.
func (e *fusedEval) at(i int) float64 {
	row := &e.rows[i]
	if row.cnt == 0 {
		return 0
	}
	r := e.r
	k := e.k
	acc := e.prompt(row)
	// Delayed channel: only the REAL parts of At's phasors are ever
	// consumed here, so the per-tap state is four Chebyshev cosine
	// recurrences (cos(θ+δ) = 2 cos δ · cos θ − cos(θ−δ)) — one multiply
	// per angle per tap in place of a complex multiply — with the two
	// kernel divisions merged. An integer-positioned band (s0Zero) keeps
	// inv0 = 0, so its (a0,b0) term adds ±0 to num: that can flip only the
	// sign of a zero num, and a zero tap term leaves dAcc, which starts at
	// +0 and so never holds −0, unchanged — the same bits as dropping the
	// pair. The j = 0 seeds are the same Sincos arguments the serial
	// kernel evaluates — a factored seed (cis(a·dtdStart)·cis(a·D − φ),
	// tried) decorrelates the trig rounding from the oracle's and the cost
	// fold's ~1e6 cancellation amplification turns that into ~1e-8, past
	// the 1e-9 contract. The j = −1 values follow from the angle-difference
	// identity on the Sincos components, so the second seed per angle is
	// free.
	dt1 := row.dtdStart + k.d
	sv, cv := math.Sincos(k.a0*dt1 - k.phi0)
	tA0 := 2 * real(r.cjA0)
	cA0, pA0 := cv, cv*real(r.cjA0)+sv*imag(r.cjA0)
	sv, cv = math.Sincos(k.b0*dt1 - k.phi0)
	tB0 := 2 * real(r.cjB0)
	cB0, pB0 := cv, cv*real(r.cjB0)+sv*imag(r.cjB0)
	sv, cv = math.Sincos(k.a1*dt1 - k.phi1)
	tA1 := 2 * real(r.cjA1)
	cA1, pA1 := cv, cv*real(r.cjA1)+sv*imag(r.cjA1)
	sv, cv = math.Sincos(k.b1*dt1 - k.phi1)
	tB1 := 2 * real(r.cjB1)
	cB1, pB1 := cv, cv*real(r.cjB1)+sv*imag(r.cjB1)
	ch1 := r.ch1[row.nLo:][:row.cnt]
	win, winScale := r.win, r.winScale
	tStep, inv0, inv1 := r.tStep, e.inv0, e.inv1
	dAcc := 0.0
	for j := range ch1 {
		x := dt1 * winScale
		if ax := x * x; ax < 1 {
			w := 1.0
			if win != nil {
				w = win.at(ax)
			}
			if w != 0 {
				var sv float64
				if math.Abs(dt1) < 1e-12 {
					sv = k.S(dt1)
				} else {
					num := (cA1 - cB1) * inv1
					num += (cA0 - cB0) * inv0
					sv = num / dt1
				}
				dAcc += ch1[j] * sv * w
			}
		}
		dt1 += tStep
		cA0, pA0 = tA0*cA0-pA0, cA0
		cB0, pB0 = tB0*cB0-pB0, cB0
		cA1, pA1 = tA1*cA1-pA1, cA1
		cB1, pB1 = tB1*cB1-pB1, cB1
	}
	return acc + dAcc
}

// CostFused returns the fused residual-power partial
//
//	Σ_{i in [lo,hi)} (rB(ts[i]) − rB1(ts[i]))²
//
// for one chunk of the skew.Cost objective, where ts are the instants of
// both tables and rB, rB1 are the reconstructions of tB, tB1 at the
// candidate kernels kB, kB1 (each of its table's band, at one delay). Both reconstructions of each instant are produced back to back and only
// the squared difference is accumulated, so the values never round-trip
// through memory. The partial is a pure function of (tables, candidate
// kernels, lo, hi) — independent of how the caller chunks [0, n) or how
// many workers evaluate the chunks — so folding fixed-size chunk partials
// in chunk order is bit-identical at any worker count.
func CostFused(tB *CostTable, kB *Kernel, tB1 *CostTable, kB1 *Kernel, lo, hi int) float64 {
	eB := tB.eval(kB)
	eB1 := tB1.eval(kB1)
	var vB, vB1 [4]float64
	acc := 0.0
	for i := lo; i < hi; i += 4 {
		n := min(4, hi-i)
		eB.at4(i, n, &vB)
		eB1.at4(i, n, &vB1)
		for l := range n {
			d := vB[l] - vB1[l]
			acc += d * d
		}
	}
	return acc
}

// Values returns the reconstruction at every instant of the table with the
// kernel k of the table's band: CostFused's per-instant values, unfolded.
// Each value depends only on its row, so the fixed-chunk fan-out is
// identical at any worker count; it agrees with At within the fused
// tolerance.
func (tab *CostTable) Values(k *Kernel) []float64 {
	e := tab.eval(k)
	out := make([]float64, len(tab.rows))
	par.ForChunks(len(out), costTableChunk, func(lo, hi int) {
		var v [4]float64
		for i := lo; i < hi; i += 4 {
			n := min(4, hi-i)
			e.at4(i, n, &v)
			copy(out[i:i+n], v[:n])
		}
	})
	return out
}

// at4 evaluates the n <= 4 instants from i into out: a whole group through
// the vector tap kernel where it applies, otherwise instant by instant.
func (e *fusedEval) at4(i, n int, out *[4]float64) {
	if n == 4 && e.vec.n != 0 && e.taps4(i, out) {
		return
	}
	for l := range n {
		out[l] = e.at(i + l)
	}
}
