package pnbs

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// This file implements the fused evaluation path of the Eq. (6)
// reconstructor: the estimate-stage hot kernel behind skew.Cost. Unlike
// At, whose per-tap operation sequence is the reference, the fused path is
// held to the estimate-stage cost contract (skew: 1e-9 relative plus 1e-15
// of the un-cancelled scale mean(rB² + rB1²), against exact arithmetic).
// That freedom takes both tap folds of an instant out of the per-candidate
// loop.
//
// Both channels ride one tap span, with offsets dtd = t0 + nT − t: the
// prompt channel's are dt0 = −dtd, the delayed channel's dt1 = dtd + D.
// Let κ_q = (a_q + b_q)/2, which is kπB and (k+1)πB, so that φ_q = κ_q·D
// and κ_q·T is a multiple of π, and β_q = (a_q − b_q)/2. Each kernel term
// then factorises exactly,
//
//	cos(a·dt − φ) − cos(b·dt − φ) = −2·sin(κ·(dt − D))·sin(β·dt),
//
// and sin(κ_q·dtd), cos(κ_q·dtd) only change sign from tap to tap, so one
// Sincos of κ_q per row serves every tap of both channels.
//
// Prompt channel. Its offsets do not move with D, so expanding
// sin(κ·dt0 − φ) by angle subtraction contracts the instant's fold to two
// scalars per phase pair, built once per instant block (CostTable),
//
//	pc_q = sin(κ_q·dtd_0)·S_q,  ps_q = cos(κ_q·dtd_0)·S_q,
//	S_q  = Σ_j (±1)^j·2·ch0[j]·w(dtd_j)·sin(β_q·dtd_j)/dtd_j,
//
// and the per-candidate evaluation is just (pc·cot φ + ps)/(2πB): only
// cot φ0 and cot φ1 depend on the delay.
//
// Delayed channel. Its fold is inv0(D)·F0(D) + inv1(D)·F1(D), with
// inv_q = 1/(2πB sin φ_q) and
//
//	F_q(D) = Σ_j ch1[j]·w(dtd_j + D)·(−2 sin(κ_q·dtd_j))·sin(β_q·(dtd_j + D))/(dtd_j + D).
//
// F_q is entire in D: sin(βx)/x → β at x = 0, so there is no removable
// singularity, and while |D| < T/2 no tap crosses the taper's support edge.
// It has no GHz oscillation and varies on the scale 1/β ≥ T/π. CostTable
// therefore fits F0 and F1 once per instant as Chebyshev series over the
// delay interval the table serves (seriesDegree picks the degree from a
// truncation bound), and a candidate costs the prompt contraction plus one
// 2(p+1)-term dot product per instant, in place of a 2h+1 tap loop.
//
// CostFused fuses the residual-power fold of skew.Cost into the same pass:
// both reconstructions of an instant are produced back to back and only the
// squared difference is accumulated, so samples never round-trip through
// memory. skew.Cost sums fixed-size chunks and adds the per-chunk partials
// in chunk order — blocked summation, which also bounds rounding growth.

// seriesTol is the truncation target of the delayed-channel series,
// relative to the bound M_q = β_q·Σ_j |2·ch1[j]·sin(κ_q·dtd_j)| on |F_q|.
// It sits at the float64 floor of the row itself: At and the direct sum
// both differ from the exact Eq. (6) sum by ~1e-12 of its un-cancelled
// scale (TestAtMatchesExactEq6), because a tap phase a·dt of ~1e3 rad
// carries a rounding of ~1e-13 rad. The bound is far from tight: on the
// paper's tables the first dropped coefficient is ~1e-15 of M_q.
const seriesTol = 2e-12

// maxSeriesDeg caps the series degree. The paper's two tables need 5; the
// widest interval a table accepts (±0.4999 T) needs 14 at the paper's
// taper and 18 with HalfTaps 4 and a Kaiser β of 20. A table whose bound
// asks for more is refused.
const maxSeriesDeg = 24

// fusedRow is the per-instant state of the fused path: the tap-span
// geometry and the prompt-channel fold contracted to four
// delay-independent scalars, both set by the row's fold in the series fit
// (seriesFit.fold).
type fusedRow struct {
	// nLo is the first capture index of the tap span (clamped like At);
	// cnt is the tap count, zero for instants outside the capture.
	nLo, cnt int32
	// dtdStart is t0 + nLo·T − t, the delayed-channel offset of the first
	// tap without the delay: dt1 = dtd + D.
	dtdStart float64
	// pc0/ps0 and pc1/ps1 are the contracted prompt-channel folds for the
	// kernel's two terms, q = 0 and q = 1.
	pc0, ps0, pc1, ps1 float64
}

// CostTable is the immutable prepared form of one reconstructor over one
// instant block for the fused cost path: the prompt-channel tap folds
// contracted to delay-independent scalars, and the delayed-channel folds
// F0, F1 as Chebyshev series over a delay interval. A candidate delay
// enters only at evaluation (Eval), so one table serves every candidate of
// the LMS search in its interval, and concurrent evaluations share nothing
// mutable.
type CostTable struct {
	r    *Reconstructor
	rows []fusedRow
	// dLo and dHi bound the delays the table serves; mid and rad map a
	// delay to the series variable u = (D − mid)/rad in [−1, 1].
	dLo, dHi, mid, rad float64
	// deg is the series degree. ser holds, per row, the deg+1 Chebyshev
	// coefficients of F0 and then those of F1 (F0's are zero on an
	// integer-positioned band, where the s0 term vanishes).
	deg int
	ser []float64
}

// costTableChunk is the instant count per pool task of CostTable. A row
// costs ~60 taps of the series fit, each a prompt term and one delayed
// term per Chebyshev node, so a cost block of a few hundred instants still
// splits into enough tasks to balance the pool.
const costTableChunk = 16

// CostTable prepares r's fused cost path over the instants ts for the
// candidate delays of [dLo, dHi], which must lie inside ±0.4999 T: the
// centre rule keeps every tap of the span within (h + ½)T + 1e-9·T of the
// instant, so for |D| < (½ − 1e-9)T no offset dt1 = dtd + D reaches the
// edge (h+1)T of the taper's support, and each F_q is smooth over the
// interval. Algorithm 1's interval is always inside: m <= T/(k+1) <= T/2.
// The rows are independent per instant, so they are built over the par
// pool; each row's folds stay serial, so the table is identical at any
// worker count. The tap span is At's. The angular rates used depend only
// on the band, so the table does not depend on r's delay.
//
// A row is built in two passes: the geometry pass (seriesFit.geomSpan,
// geomTaps), which reads only the capture geometry and the instant, and
// the fold over the samples (seriesFit.fold). The process-wide geometry
// cache (geomcache.go) keeps a whole table's geometry once its key has
// been seen twice, and a later table over the same key runs only the
// folds. Either way the table is bit-identical to the single-pass oracle
// seriesFit.rowReference.
func (r *Reconstructor) CostTable(ts []float64, dLo, dHi float64) (*CostTable, error) {
	tab, _, err := r.costTable(ts, dLo, dHi, &costGeoms)
	return tab, err
}

// geomStackVals sizes the stack buffer of an uncached row's tap values:
// 61 taps of 7 values (the paper's filter at degree 5) fit.
const geomStackVals = 512

// costTable is CostTable over the geometry cache c; it also reports how
// the cache served the table.
func (r *Reconstructor) costTable(ts []float64, dLo, dHi float64, c *geomCache) (*CostTable, geomUse, error) {
	if lim := 0.4999 * r.tStep; !(dLo <= dHi) || dLo <= -lim || dHi >= lim {
		return nil, 0, fmt.Errorf("pnbs: cost table delay interval [%g, %g] must lie inside ±%g (0.4999 T)", dLo, dHi, lim)
	}
	tab := &CostTable{r: r, rows: make([]fusedRow, len(ts)),
		dLo: dLo, dHi: dHi, mid: dLo + (dHi-dLo)/2, rad: (dHi - dLo) / 2}
	deg, err := r.seriesDegree(tab.rad)
	if err != nil {
		return nil, 0, err
	}
	tab.deg = deg
	fit := r.newSeriesFit(tab)
	stride := 2 * (deg + 1)
	tab.ser = make([]float64, len(ts)*stride)
	key := r.geomKey(ts, tab)
	geo, use := c.lookup(key, ts, fit.geomBound(len(ts)))
	if use == geomAdmit {
		geo = fit.newTableGeom(key, ts)
	}
	m := fit.deg + 2
	par.ForChunks(len(ts), costTableChunk, func(lo, hi int) {
		var stack [geomStackVals]float64
		var nearBuf [maxSeriesDeg + 2]nearTerm
		var g geomRow
		for i := lo; i < hi; i++ {
			out := tab.ser[i*stride:][:stride]
			switch use {
			case geomHit:
				gr := &geo.rows[i]
				fit.fold(&tab.rows[i], gr, geo.vals(gr, m), geo.near[i*m:][:gr.nNear], out)
			case geomAdmit:
				gr := &geo.rows[i]
				wx, near := geo.vals(gr, m), geo.near[i*m:][:m]
				gr.nNear = fit.geomTaps(gr, wx, near)
				fit.fold(&tab.rows[i], gr, wx, near[:gr.nNear], out)
			default:
				fit.geomSpan(&g, ts[i])
				wx := stack[:]
				if need := int(g.cnt) * m; need > len(wx) {
					wx = make([]float64, need)
				}
				n := fit.geomTaps(&g, wx, nearBuf[:m])
				fit.fold(&tab.rows[i], &g, wx, nearBuf[:n], out)
			}
		}
	})
	if use == geomAdmit {
		c.admit(geo)
	}
	return tab, use, nil
}

// seriesDegree returns the smallest degree p whose interpolation bound on
// the delayed-channel series, over an interval of half-width rad, is
// within seriesTol:
//
//	2·(τ·rad/2)^(p+1)/(p+1)! <= seriesTol,  τ = max_q β_q + βk/((h+1)T).
//
// On the interval each F_q equals the entire function that continues the
// Kaiser taper I0(βk√(1 − x²))/I0(βk) beyond its support (there it is
// J0(βk√(x² − 1))/I0(βk)), and that function is bounded on the real line
// by M_q = β_q·Σ_j |2·ch1[j]·sin(κ_q·dtd_j)| (taper <= 1, |sin(βx)/x| <= β)
// and is of exponential type τ_q: β_q from sin(β_q x)/x and βk/((h+1)T)
// from the taper (0 for the rectangular window). Bernstein's inequality
// gives |F_q^(p+1)| <= τ_q^(p+1)·M_q, and interpolation at the p+1
// first-kind Chebyshev nodes errs by at most
// 2·(rad/2)^(p+1)·max|F_q^(p+1)|/(p+1)!.
func (r *Reconstructor) seriesDegree(rad float64) (int, error) {
	k := r.kern
	tau := math.Abs(k.beta[1])
	if !k.s0Zero {
		tau = math.Max(tau, math.Abs(k.beta[0]))
	}
	if r.win != nil {
		tau += r.opt.KaiserBeta * r.winScale
	}
	x := tau * rad / 2
	bound := 2 * x
	for p := 0; p <= maxSeriesDeg; p++ {
		if bound <= seriesTol {
			return p, nil
		}
		bound *= x / float64(p+2)
	}
	return 0, fmt.Errorf("pnbs: delayed-channel series needs a degree above %d over a delay interval of half-width %g", maxSeriesDeg, rad)
}

// seriesFit holds what the row fits of one table share: the Chebyshev
// nodes, the trig of β_q at each node and per tap step, and the
// node-to-coefficient matrix.
type seriesFit struct {
	r           *Reconstructor
	deg         int
	kappa, beta [2]float64
	// flip is (−1)^k and (−1)^(k+1): κ_q·T is kπ and (k+1)π, so
	// sin(κ_q·dtd) changes by that factor from tap to tap.
	flip [2]float64
	// sinT, cosT rotate β_q·dtd by one tap step.
	sinT, cosT [2]float64
	node       [maxSeriesDeg + 1]float64
	sinD, cosD [2][maxSeriesDeg + 1]float64
	// cheb[m][i] maps node values to coefficient m:
	// (2/(p+1))·cos(m·π(i+½)/(p+1)), halved for m = 0.
	cheb [maxSeriesDeg + 1][maxSeriesDeg + 1]float64
}

func (r *Reconstructor) newSeriesFit(tab *CostTable) *seriesFit {
	k := r.kern
	f := &seriesFit{r: r, deg: tab.deg, kappa: k.kappa, beta: k.beta, flip: [2]float64{1, -1}}
	if k.k%2 == 1 {
		f.flip = [2]float64{-1, 1}
	}
	n := tab.deg + 1
	for q, b := range f.beta {
		f.sinT[q], f.cosT[q] = math.Sincos(b * r.tStep)
	}
	for i := 0; i < n; i++ {
		f.node[i] = tab.mid + tab.rad*math.Cos(math.Pi*(float64(i)+0.5)/float64(n))
		for q, b := range f.beta {
			f.sinD[q][i], f.cosD[q][i] = math.Sincos(b * f.node[i])
		}
	}
	for m := 0; m < n; m++ {
		w := 2 / float64(n)
		if m == 0 {
			w /= 2
		}
		for i := 0; i < n; i++ {
			f.cheb[m][i] = w * math.Cos(float64(m)*math.Pi*(float64(i)+0.5)/float64(n))
		}
	}
	return f
}

// rowReference is the single-pass form of a row, kept as the oracle the
// two-pass build (geomSpan, geomTaps, fold) is checked against bit for
// bit: it sets the row of instant t, its tap span, its prompt scalars,
// and the Chebyshev coefficients of its F0 and F1, written to out (F0's
// deg+1, then F1's); an out-of-capture instant keeps cnt = 0 (its fused
// value is 0). A tap's node-independent parts come from its predecessor's:
// the κ_q trig by the exact sign flip, and (sin, cos)(β_q·dtd) by one
// rotation, all seeded at the first tap. The prompt term takes
// sin(β·dtd) from the rotation; the delayed node terms take
// sin(β·(dtd + D_i)) by angle addition. Either's rounding is relative to
// |β·dtd|, not to the offset x the sine is divided by, so the few offsets
// with |x| < T/8 take sin(β·x)/x directly (sincNear). On an
// integer-positioned band the F0 seed is 0, so F0's values stay 0.
func (f *seriesFit) rowReference(row *fusedRow, t float64, out []float64) {
	r := f.r
	nLo, nHi := r.span(t)
	if nLo > nHi {
		return
	}
	row.nLo = int32(nLo)
	row.cnt = int32(nHi - nLo + 1)
	row.dtdStart = r.t0 + float64(nLo)*r.tStep - t
	n := f.deg + 1
	var vals [2][maxSeriesDeg + 1]float64
	v0, v1 := vals[0][:n], vals[1][:n]
	sinD0, cosD0 := f.sinD[0][:n], f.cosD[0][:n]
	sinD1, cosD1 := f.sinD[1][:n], f.cosD[1][:n]
	win, ws, near := r.win, r.winScale, r.tStep/8
	dtd := row.dtdStart
	sk0, ck0 := math.Sincos(f.kappa[0] * dtd)
	sk1, ck1 := math.Sincos(f.kappa[1] * dtd)
	var g0 float64 // F0 stays 0 on an integer-positioned band
	if !r.kern.s0Zero {
		g0 = -2 * sk0
	}
	g1 := -2 * sk1
	e0, e1 := 2.0, 2.0 // the prompt's tap sign, 2·(±1)^j
	var p0, p1 float64 // S_0 and S_1
	s0, c0 := math.Sincos(f.beta[0] * dtd)
	s1, c1 := math.Sincos(f.beta[1] * dtd)
	ch0 := r.ch0[nLo:][:row.cnt]
	for j, c := range r.ch1[nLo:][:row.cnt] {
		if w := r.window(dtd); w != 0 {
			var h0, h1 float64
			if math.Abs(dtd) >= near {
				wx := w / dtd
				h0, h1 = s0*wx, s1*wx
			} else {
				h0, h1 = f.sincNear(w, dtd)
			}
			p0 += e0 * ch0[j] * h0
			p1 += e1 * ch0[j] * h1
		}
		gc0, gc1 := g0*c, g1*c
		for i, d := range f.node[:n] {
			x := dtd + d
			xs := x * ws
			y := xs * xs
			if y >= 1 {
				continue
			}
			w := 1.0
			if win != nil {
				w = win.at(y)
			}
			var h0, h1 float64
			if math.Abs(x) >= near {
				wx := w / x
				h0 = (s0*cosD0[i] + c0*sinD0[i]) * wx
				h1 = (s1*cosD1[i] + c1*sinD1[i]) * wx
			} else {
				h0, h1 = f.sincNear(w, x)
			}
			v0[i] += gc0 * h0
			v1[i] += gc1 * h1
		}
		g0 *= f.flip[0]
		g1 *= f.flip[1]
		e0 *= f.flip[0]
		e1 *= f.flip[1]
		s0, c0 = s0*f.cosT[0]+c0*f.sinT[0], c0*f.cosT[0]-s0*f.sinT[0]
		s1, c1 = s1*f.cosT[1]+c1*f.sinT[1], c1*f.cosT[1]-s1*f.sinT[1]
		dtd += r.tStep
	}
	row.pc0, row.ps0 = sk0*p0, ck0*p0
	row.pc1, row.ps1 = sk1*p1, ck1*p1
	f.coeffs(&vals, out)
}

// coeffs maps a row's node values of F0 and F1 to their Chebyshev
// coefficients, written to out (F0's deg+1, then F1's).
func (f *seriesFit) coeffs(vals *[2][maxSeriesDeg + 1]float64, out []float64) {
	n := f.deg + 1
	for q := range vals {
		v, c := vals[q][:n], out[q*n:][:n]
		for m := range c {
			acc := 0.0
			for i, cm := range f.cheb[m][:n] {
				acc += cm * v[i]
			}
			c[m] = acc
		}
	}
}

// geomRow is the sample-independent part of one row: its tap span and
// the trig seeds of its first tap. A row's tap values (w(x)/x per tap,
// deg+2 of them) and near-offset terms live beside it, in the table
// geometry or in a build's scratch.
type geomRow struct {
	// nLo, cnt and dtdStart are fusedRow's; cnt is 0 for an instant
	// outside the capture. nNear counts the row's near-offset terms.
	nLo, cnt, nNear int32
	// off is the index of the row's first tap value in tableGeom.wx.
	off      int
	dtdStart float64
	// sk, ck are sin, cos of κ_q·dtdStart; sb, cb those of β_q·dtdStart.
	sk, ck, sb, cb [2]float64
}

// nearTerm is w·sin(β_q·x)/x for both phase pairs (sincNear) at one tap
// offset |x| < T/8, which the fold takes as is: node −1 is the prompt
// offset dtd, node i ≥ 0 the delayed offset dtd + D_i. A row's terms are
// in (tap, node) order; each node, and the prompt, has at most one, since
// the taps lie T apart.
type nearTerm struct {
	tap, node int32
	h0, h1    float64
}

// geomSpan sets g to instant t's tap span (At's) and trig seeds. An
// instant outside the capture gets the zero row.
func (f *seriesFit) geomSpan(g *geomRow, t float64) {
	r := f.r
	*g = geomRow{}
	nLo, nHi := r.span(t)
	if nLo > nHi {
		return
	}
	g.nLo = int32(nLo)
	g.cnt = int32(nHi - nLo + 1)
	g.dtdStart = r.t0 + float64(nLo)*r.tStep - t
	for q := range g.sk {
		g.sk[q], g.ck[q] = math.Sincos(f.kappa[q] * g.dtdStart)
		g.sb[q], g.cb[q] = math.Sincos(f.beta[q] * g.dtdStart)
	}
}

// geomTaps writes row g's tap values to wx, deg+2 per tap: w(dtd)/dtd for
// the prompt offset, then w(x)/x at each node's delayed offset
// x = dtd + D_i, 0 where the taper vanishes. An offset with |x| < T/8
// goes to near as a nearTerm instead (its wx slot stays 0); geomTaps
// returns their count. wx needs cnt·(deg+2) values and near deg+2 slots.
func (f *seriesFit) geomTaps(g *geomRow, wx []float64, near []nearTerm) int32 {
	r := f.r
	n := f.deg + 1
	win, ws, lim := r.win, r.winScale, r.tStep/8
	dtd := g.dtdStart
	k := 0
	for j := range int(g.cnt) {
		v := wx[j*(n+1):][:n+1]
		v[0] = 0
		if w := r.window(dtd); w != 0 {
			if math.Abs(dtd) >= lim {
				v[0] = w / dtd
			} else {
				near[k] = nearTerm{tap: int32(j), node: -1}
				near[k].h0, near[k].h1 = f.sincNear(w, dtd)
				k++
			}
		}
		for i, d := range f.node[:n] {
			v[1+i] = 0
			x := dtd + d
			xs := x * ws
			y := xs * xs
			if y >= 1 {
				continue
			}
			w := 1.0
			if win != nil {
				w = win.at(y)
			}
			if math.Abs(x) >= lim {
				v[1+i] = w / x
			} else {
				near[k] = nearTerm{tap: int32(j), node: int32(i)}
				near[k].h0, near[k].h1 = f.sincNear(w, x)
				k++
			}
		}
		dtd += r.tStep
	}
	return int32(k)
}

// fold sets row from its geometry (g, the tap values wx, the near terms)
// and the samples: its span, its prompt scalars, and the Chebyshev
// coefficients of its F0 and F1, written to out. It evaluates
// rowReference's expressions in rowReference's order, so the row is
// bit-identical to it: an offset rowReference skips (the taper vanishes)
// has wx = 0 and adds an exact ±0 to a sum that starts at +0 and so is
// never −0.
func (f *seriesFit) fold(row *fusedRow, g *geomRow, wx []float64, near []nearTerm, out []float64) {
	if g.cnt == 0 {
		return
	}
	r := f.r
	row.nLo, row.cnt, row.dtdStart = g.nLo, g.cnt, g.dtdStart
	n := f.deg + 1
	var vals [2][maxSeriesDeg + 1]float64
	v0, v1 := vals[0][:n], vals[1][:n]
	sinD0, cosD0 := f.sinD[0][:n], f.cosD[0][:n]
	sinD1, cosD1 := f.sinD[1][:n], f.cosD[1][:n]
	var g0 float64 // F0 stays 0 on an integer-positioned band
	if !r.kern.s0Zero {
		g0 = -2 * g.sk[0]
	}
	g1 := -2 * g.sk[1]
	e0, e1 := 2.0, 2.0 // the prompt's tap sign, 2·(±1)^j
	var p0, p1 float64 // S_0 and S_1
	s0, c0, s1, c1 := g.sb[0], g.cb[0], g.sb[1], g.cb[1]
	ch0 := r.ch0[g.nLo:][:g.cnt]
	k := 0
	for j, c := range r.ch1[g.nLo:][:g.cnt] {
		v := wx[j*(n+1):][:n+1]
		nearTap := k < len(near) && int(near[k].tap) == j
		var h0, h1 float64
		if nearTap && near[k].node < 0 {
			h0, h1 = near[k].h0, near[k].h1
			k++
		} else {
			h0, h1 = s0*v[0], s1*v[0]
		}
		p0 += e0 * ch0[j] * h0
		p1 += e1 * ch0[j] * h1
		gc0, gc1 := g0*c, g1*c
		if nearTap {
			for i := range v0 {
				if k < len(near) && int(near[k].tap) == j && int(near[k].node) == i {
					h0, h1 = near[k].h0, near[k].h1
					k++
				} else {
					h0 = (s0*cosD0[i] + c0*sinD0[i]) * v[1+i]
					h1 = (s1*cosD1[i] + c1*sinD1[i]) * v[1+i]
				}
				v0[i] += gc0 * h0
				v1[i] += gc1 * h1
			}
		} else {
			for i, wi := range v[1:] {
				h0 = (s0*cosD0[i] + c0*sinD0[i]) * wi
				h1 = (s1*cosD1[i] + c1*sinD1[i]) * wi
				v0[i] += gc0 * h0
				v1[i] += gc1 * h1
			}
		}
		g0 *= f.flip[0]
		g1 *= f.flip[1]
		e0 *= f.flip[0]
		e1 *= f.flip[1]
		s0, c0 = s0*f.cosT[0]+c0*f.sinT[0], c0*f.cosT[0]-s0*f.sinT[0]
		s1, c1 = s1*f.cosT[1]+c1*f.sinT[1], c1*f.cosT[1]-s1*f.sinT[1]
	}
	row.pc0, row.ps0 = g.sk[0]*p0, g.ck[0]*p0
	row.pc1, row.ps1 = g.sk[1]*p1, g.ck[1]*p1
	f.coeffs(&vals, out)
}

// sincNear returns w·sin(β_q·x)/x for both phase pairs at an offset
// |x| < T/8, evaluated directly, with its limit w·β_q at x = 0.
func (f *seriesFit) sincNear(w, x float64) (h0, h1 float64) {
	if x == 0 {
		return w * f.beta[0], w * f.beta[1]
	}
	return w * math.Sin(f.beta[0]*x) / x, w * math.Sin(f.beta[1]*x) / x
}

// CostEval is a CostTable prepared at one candidate delay: the kernel's
// delay-dependent scalars, hoisted out of the instant loop.
type CostEval struct {
	tab    *CostTable
	s0Zero bool
	// cot0/cot1 contract the prompt-channel scalars; inv0/inv1 are the
	// delayed-channel kernel denominators 1/(2πB sin φ_q), and u the
	// candidate's series variable (D − mid)/rad.
	cot0, cot1, inv2piB float64
	inv0, inv1, u       float64
}

// Eval prepares the table at candidate delay d. It fails as NewKernel does
// when d violates Eq. (3), and when d lies outside the table's interval:
// the series are never extrapolated.
func (tab *CostTable) Eval(d float64) (CostEval, error) {
	k, err := newKernel(tab.r.kern.band, d)
	if err != nil {
		return CostEval{}, err
	}
	if !(d >= tab.dLo && d <= tab.dHi) {
		return CostEval{}, fmt.Errorf("pnbs: delay %g outside the cost table's interval [%g, %g]", d, tab.dLo, tab.dHi)
	}
	e := CostEval{tab: tab, s0Zero: k.s0Zero, inv2piB: 1 / (2 * math.Pi * k.band.B)}
	e.cot1 = math.Cos(k.phi[1]) / k.sin[1]
	e.inv1 = e.inv2piB / k.sin[1]
	if !k.s0Zero {
		e.cot0 = math.Cos(k.phi[0]) / k.sin[0]
		e.inv0 = e.inv2piB / k.sin[0]
	}
	if tab.rad > 0 {
		e.u = (d - tab.mid) / tab.rad
	}
	return e, nil
}

// seriesBasis holds inv_q·T_m(u) laid out like a row's coefficients:
// term 0's deg+1 values, then term 1's.
type seriesBasis [2 * (maxSeriesDeg + 1)]float64

// basis fills b with the series' Chebyshev basis at the candidate's u,
// scaled by the kernel denominators, and returns its used part. Callers
// fill it once per chunk of instants, on the stack.
func (e *CostEval) basis(b *seriesBasis) []float64 {
	// T_{m+1} = 2u·T_m − T_{m−1}, started from T_0 = 1 and T_{−1} = T_1 = u.
	n, u := e.tab.deg+1, e.u
	tm, tPrev := 1.0, u
	for m := 0; m < n; m++ {
		b[m], b[n+m] = e.inv0*tm, e.inv1*tm
		tm, tPrev = 2*u*tm-tPrev, tm
	}
	return b[:2*n]
}

// prompt is the prompt-channel value of a row: the whole tap fold is the
// prepared contraction against the two delay-dependent cotangents.
func (e *CostEval) prompt(row *fusedRow) float64 {
	if e.s0Zero {
		return (row.pc1*e.cot1 + row.ps1) * e.inv2piB
	}
	return ((row.pc0*e.cot0 + row.ps0) + (row.pc1*e.cot1 + row.ps1)) * e.inv2piB
}

// at evaluates instant i of the table at the candidate: the prompt
// contraction plus the delayed channel's series, inv0·F0 + inv1·F1, as a
// dot product of the row's coefficients with the basis b.
func (e *CostEval) at(i int, b []float64) float64 {
	c := e.tab.ser[i*len(b):][:len(b)]
	acc := 0.0
	for m, v := range c {
		acc += v * b[m]
	}
	return e.value(i, acc)
}

// value completes instant i from its series dot product acc: 0 for an
// instant outside the capture, else the prompt contraction plus acc.
func (e *CostEval) value(i int, acc float64) float64 {
	row := &e.tab.rows[i]
	if row.cnt == 0 {
		return 0
	}
	return e.prompt(row) + acc
}

// CostFused returns the fused residual-power partial
//
//	Σ_{i in [lo,hi)} (rB(ts[i]) − rB1(ts[i]))²
//
// for one chunk of the skew.Cost objective, where ts are the instants of
// both tables and rB, rB1 are the reconstructions prepared by eB and eB1
// (each at one candidate delay). Both reconstructions of each instant are
// produced back to back and only the squared difference is accumulated.
// When the two series have one degree, instants go in pairs (costPair),
// whose four dot products run as independent chains; every value keeps
// at's operation order, so the partial is the per-instant loop's bit for
// bit. The partial is a pure function of (evaluations, lo, hi) —
// independent of how the caller chunks [0, n) or how many workers evaluate
// the chunks — so folding fixed-size chunk partials in chunk order is
// bit-identical at any worker count.
func CostFused(eB, eB1 *CostEval, lo, hi int) float64 {
	var bufB, bufB1 seriesBasis
	bB, bB1 := eB.basis(&bufB), eB1.basis(&bufB1)
	acc := 0.0
	i := lo
	if len(bB) == len(bB1) {
		for ; i+1 < hi; i += 2 {
			d0, d1 := costPair(eB, eB1, i, bB, bB1)
			acc += d0 * d0
			acc += d1 * d1
		}
	}
	for ; i < hi; i++ {
		d := eB.at(i, bB) - eB1.at(i, bB1)
		acc += d * d
	}
	return acc
}

// costPair returns the residuals rB − rB1 of instants i and i+1 from one
// pass over the series: four independent dot-product chains, each in
// at's order. bB and bB1 must have one length.
func costPair(eB, eB1 *CostEval, i int, bB, bB1 []float64) (d0, d1 float64) {
	n := len(bB)
	x := eB.tab.ser[i*n:][:2*n]
	y := eB1.tab.ser[i*n:][:2*n]
	x0, x1, y0, y1 := x[:n], x[n:], y[:n], y[n:]
	bB1 = bB1[:n]
	var a0, a1, a2, a3 float64
	for m, b := range bB {
		a0 += x0[m] * b
		a1 += x1[m] * b
		a2 += y0[m] * bB1[m]
		a3 += y1[m] * bB1[m]
	}
	return eB.value(i, a0) - eB1.value(i, a2), eB.value(i+1, a1) - eB1.value(i+1, a3)
}

// Values returns the reconstruction at every instant of the table at the
// candidate delay d: CostFused's per-instant values, unfolded. It fails as
// Eval does. Each value depends only on its row, so the fixed-chunk
// fan-out is identical at any worker count; it agrees with At within the
// fused tolerance.
func (tab *CostTable) Values(d float64) ([]float64, error) {
	e, err := tab.Eval(d)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(tab.rows))
	par.ForChunks(len(out), costTableChunk, func(lo, hi int) {
		var buf seriesBasis
		b := e.basis(&buf)
		for i := lo; i < hi; i++ {
			out[i] = e.at(i, b)
		}
	})
	return out, nil
}
