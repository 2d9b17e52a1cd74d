package dsp

// BesselI0 returns the modified Bessel function of the first kind, order
// zero, I0(x), by its defining power series sum_k ((x/2)^k / k!)^2, summed
// until a term no longer moves the sum (a NaN x returns NaN). Every term
// is positive, so nothing cancels: the result is within 1.2e-15 relative
// for |x| <= 13, the largest Kaiser beta used here, and within 3e-15 out
// to 50. It is the repository's only I0, behind both dsp.Kaiser and the
// tabulated Eq. 6 taper.
func BesselI0(x float64) float64 {
	sum, term := 1.0, 1.0
	half := x / 2
	for k := 1; ; k++ {
		term *= (half / float64(k)) * (half / float64(k))
		if !(sum+term > sum) {
			return sum + term // sum itself, or NaN for a NaN x
		}
		sum += term
	}
}
