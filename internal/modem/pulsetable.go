package modem

import (
	"math"
	"sync"
)

const (
	// tableCells is the number of polynomial cells per symbol period: the
	// polyphase branches of a pfb-style arbitrary resampler.
	tableCells = 64
	// tableDeg is the degree of each cell's polynomial. At 64 cells per
	// symbol, degree 6 keeps the paper pulse within 4e-15 of SRRC.At.
	tableDeg = 6
)

// pulseTable tabulates SRRC × edge taper over x = t/Ts in [0, span), so it
// does not depend on Ts. Cell j covers x in [j, j+1)/tableCells and holds
// the monomial coefficients, constant first, of the degree-tableDeg
// interpolant at Chebyshev nodes in s = 2(x·tableCells - j) - 1, s in
// [-1, 1]. The pulse is even, so x < 0 reads the mirrored cell at -s.
type pulseTable [][tableDeg + 1]float64

type tableKey struct {
	alpha float64
	span  int
}

// tableCache holds one pulseTable per (alpha, span), built on first use and
// never evicted. Concurrent first builds compute identical tables; the
// first one stored wins.
var tableCache sync.Map // tableKey -> pulseTable

func tableFor(p *SRRC) pulseTable {
	key := tableKey{p.Alpha, p.Span}
	if v, ok := tableCache.Load(key); ok {
		return v.(pulseTable)
	}
	v, _ := tableCache.LoadOrStore(key, buildTable(p))
	return v.(pulseTable)
}

// buildTable fits every cell from the analytic pulse p.atX.
func buildTable(p *SRRC) pulseTable {
	const n = tableDeg + 1
	// Chebyshev nodes s_i, the values T_k(s_i) and the monomial
	// coefficients of T_k.
	var node [n]float64
	var cheb [n][n]float64 // cheb[k][i]: T_k(s_i)
	for i := range node {
		node[i] = math.Cos(math.Pi * (2*float64(i) + 1) / (2 * n))
		for k := 0; k < n; k++ {
			cheb[k][i] = math.Cos(math.Pi * float64(k) * (2*float64(i) + 1) / (2 * n))
		}
	}
	var mono [n][n]float64 // mono[k][j]: coefficient of s^j in T_k
	mono[0][0] = 1
	mono[1][1] = 1
	for k := 2; k < n; k++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				mono[k][j] = 2 * mono[k-1][j-1]
			}
			mono[k][j] -= mono[k-2][j]
		}
	}
	tab := make(pulseTable, p.Span*tableCells)
	var v [n]float64
	for c := range tab {
		for i, s := range node {
			v[i] = p.atX((float64(c) + (s+1)/2) / tableCells)
		}
		for k := 0; k < n; k++ {
			a := 0.0
			for i := range v {
				a += v[i] * cheb[k][i]
			}
			a *= 2.0 / n
			if k == 0 {
				a /= 2
			}
			for j := 0; j <= k; j++ {
				tab[c][j] += a * mono[k][j]
			}
		}
	}
	return tab
}

// horner evaluates one cell's polynomial at s.
func horner(c *[tableDeg + 1]float64, s float64) float64 {
	return c[0] + s*(c[1]+s*(c[2]+s*(c[3]+s*(c[4]+s*(c[5]+s*c[6])))))
}
