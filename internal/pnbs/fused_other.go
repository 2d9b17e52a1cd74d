//go:build !amd64

package pnbs

// Without the amd64 encodings the Go loops are the only path: useAVX2 is
// always false, so the kernels below are never reached.

func cpuHasAVX2() bool { return false }

func fusedTaps4(*tapLanes) bool { panic("pnbs: no vector tap kernel on this architecture") }

func costRows4(*rowLanes) { panic("pnbs: no vector row kernel on this architecture") }

func sincos4(x, s, c *[4]float64) { panic("pnbs: no vector Sincos on this architecture") }
