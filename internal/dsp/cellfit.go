package dsp

import "math"

// FitCells tabulates a smooth function as cells piecewise polynomials of
// degree deg >= 1. Cell c's polynomial interpolates f(c, s) at the deg+1
// Chebyshev nodes s_i = cos(π(2i+1)/(2(deg+1))) of s in [-1, 1]; the
// caller maps (c, s) to its own argument. The result holds cells rows of
// deg+1 monomial coefficients in s, constant first: row c is
// out[c(deg+1) : (c+1)(deg+1)].
//
// Each row is the interpolant's Chebyshev expansion folded into monomials,
// accumulated in ascending order of T_k, so a table is a pure function of
// (cells, deg, f).
func FitCells(cells, deg int, f func(cell int, s float64) float64) []float64 {
	n := deg + 1
	// Chebyshev nodes s_i, the values T_k(s_i) and the monomial
	// coefficients of T_k.
	node := make([]float64, n)
	cheb := make([][]float64, n) // cheb[k][i]: T_k(s_i)
	mono := make([][]float64, n) // mono[k][j]: coefficient of s^j in T_k
	for k := range cheb {
		cheb[k] = make([]float64, n)
		mono[k] = make([]float64, n)
	}
	for i := range node {
		node[i] = math.Cos(math.Pi * (2*float64(i) + 1) / float64(2*n))
		for k := 0; k < n; k++ {
			cheb[k][i] = math.Cos(math.Pi * float64(k) * (2*float64(i) + 1) / float64(2*n))
		}
	}
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
	out := make([]float64, cells*n)
	v := make([]float64, n)
	for c := 0; c < cells; c++ {
		row := out[c*n : (c+1)*n]
		for i, s := range node {
			v[i] = f(c, s)
		}
		for k := 0; k < n; k++ {
			a := 0.0
			for i := range v {
				a += v[i] * cheb[k][i]
			}
			a *= 2 / float64(n)
			if k == 0 {
				a /= 2
			}
			for j := 0; j <= k; j++ {
				row[j] += a * mono[k][j]
			}
		}
	}
	return out
}
