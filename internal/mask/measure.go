package mask

import (
	"fmt"

	"repro/internal/dsp"
)

// OccupiedBandwidth returns the width of the smallest frequency interval
// centred on the power centroid that contains the given fraction (e.g.
// 0.99) of the total power — the standard 99 % OBW measurement.
func OccupiedBandwidth(spec *dsp.Spectrum, fraction float64) (obw, centre float64, err error) {
	if spec == nil || spec.Len() < 3 {
		return 0, 0, fmt.Errorf("mask: OBW: empty spectrum")
	}
	if fraction <= 0 || fraction >= 1 {
		return 0, 0, fmt.Errorf("mask: OBW: fraction %g outside (0, 1)", fraction)
	}
	total := 0.0
	var centroid float64
	for i, p := range spec.PSD {
		total += p
		centroid += p * spec.Freqs[i]
	}
	if total <= 0 {
		return 0, 0, fmt.Errorf("mask: OBW: zero power")
	}
	centroid /= total
	// Standard tail method: discard (1-fraction)/2 of the power from each
	// edge of the spectrum.
	tail := total * (1 - fraction) / 2
	acc := 0.0
	lo := spec.Freqs[0]
	for i := 0; i < spec.Len(); i++ {
		acc += spec.PSD[i]
		if acc >= tail {
			lo = spec.Freqs[i]
			break
		}
	}
	acc = 0.0
	hi := spec.Freqs[spec.Len()-1]
	for i := spec.Len() - 1; i >= 0; i-- {
		acc += spec.PSD[i]
		if acc >= tail {
			hi = spec.Freqs[i]
			break
		}
	}
	if hi < lo {
		hi = lo
	}
	return hi - lo, centroid, nil
}
