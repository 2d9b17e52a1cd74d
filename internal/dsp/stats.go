package dsp

import "math"

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// RMS returns the root-mean-square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// RelRMSError returns RMS(a-b)/RMS(b): the relative error of a with respect
// to reference b. It returns +Inf when the reference has zero power but the
// error does not.
func RelRMSError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dsp: RelRMSError: length mismatch")
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// MaxAbsFloat returns max_i |x[i]| (0 for empty input).
func MaxAbsFloat(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Linspace returns n evenly spaced points from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = a
		return out
	}
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}

// SolveLinear solves the n x n dense system A x = b in place using Gaussian
// elimination with partial pivoting. A is row-major; both A and b are
// clobbered. It returns false when the matrix is numerically singular.
func SolveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best = v
				piv = r
			}
		}
		if best < 1e-300 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}
