package pnbs

// Implemented in fused_amd64.s.

// cpuHasAVX2 reports AVX2 support with the YMM state enabled by the OS
// (CPUID and XGETBV).
func cpuHasAVX2() bool

// costRows4 runs costRowFold's tap loop on four rows.
//
//go:noescape
func costRows4(l *rowLanes)

// sincos4 is math.Sincos on four lanes, for finite non-zero |x| < 2^29.
//
//go:noescape
func sincos4(x, s, c *[4]float64)
