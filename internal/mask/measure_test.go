package mask

import (
	"math"
	"testing"

	"repro/internal/dsp"
)

// rectSpectrum builds a flat band of the given width on a tiny floor.
func rectSpectrum(fc, bw, span, binW float64) *dsp.Spectrum {
	n := int(span / binW)
	fr := make([]float64, n)
	ps := make([]float64, n)
	for i := 0; i < n; i++ {
		f := fc - span/2 + float64(i)*binW
		fr[i] = f
		if math.Abs(f-fc) <= bw/2 {
			ps[i] = 1
		} else {
			ps[i] = 1e-9
		}
	}
	return &dsp.Spectrum{Freqs: fr, PSD: ps, BinWidth: binW}
}

func TestOccupiedBandwidthRectangular(t *testing.T) {
	spec := rectSpectrum(1e9, 10e6, 80e6, 50e3)
	obw, centre, err := OccupiedBandwidth(spec, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// 99 % of a flat 10 MHz band: ~9.9 MHz.
	if obw < 9.5e6 || obw > 10.2e6 {
		t.Errorf("OBW %g", obw)
	}
	if math.Abs(centre-1e9) > 100e3 {
		t.Errorf("centroid %g", centre)
	}
}

func TestOccupiedBandwidthValidation(t *testing.T) {
	if _, _, err := OccupiedBandwidth(nil, 0.99); err == nil {
		t.Error("nil spectrum must fail")
	}
	spec := rectSpectrum(0, 1e6, 10e6, 50e3)
	if _, _, err := OccupiedBandwidth(spec, 0); err == nil {
		t.Error("fraction 0 must fail")
	}
	if _, _, err := OccupiedBandwidth(spec, 1); err == nil {
		t.Error("fraction 1 must fail")
	}
	zero := rectSpectrum(0, 1e6, 10e6, 50e3)
	for i := range zero.PSD {
		zero.PSD[i] = 0
	}
	if _, _, err := OccupiedBandwidth(zero, 0.99); err == nil {
		t.Error("zero power must fail")
	}
}
