package pnbs

// Implemented in fused_amd64.s.

// cpuHasAVX2 reports AVX2 support with the YMM state enabled by the OS
// (CPUID and XGETBV).
func cpuHasAVX2() bool

// fusedTaps4 runs the delayed-channel tap loop of fusedEval.at on four rows,
// seeds included. It reports false, leaving l.acc untouched, when a seed
// argument lies outside the vector Sincos' domain.
//
//go:noescape
func fusedTaps4(l *tapLanes) bool

// costRows4 runs costRowFold's tap loop on four rows.
//
//go:noescape
func costRows4(l *rowLanes)

// sincos4 is math.Sincos on four lanes, for finite non-zero |x| < 2^29.
//
//go:noescape
func sincos4(x, s, c *[4]float64)
