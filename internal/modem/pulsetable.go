package modem

import (
	"sync"

	"repro/internal/dsp"
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
	coef := dsp.FitCells(p.Span*tableCells, tableDeg, func(c int, s float64) float64 {
		return p.atX((float64(c) + (s+1)/2) / tableCells)
	})
	tab := make(pulseTable, p.Span*tableCells)
	for c := range tab {
		copy(tab[c][:], coef[c*n:])
	}
	return tab
}

// horner evaluates one cell's polynomial at s.
func horner(c *[tableDeg + 1]float64, s float64) float64 {
	return c[0] + s*(c[1]+s*(c[2]+s*(c[3]+s*(c[4]+s*(c[5]+s*c[6])))))
}
