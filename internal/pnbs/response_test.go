package pnbs

import (
	"math"
	"testing"
)

func TestFrequencyResponsePassbandFlat(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	freqs := []float64{965e6, 980e6, 1e9, 1.02e9, 1.035e9}
	pts, err := FrequencyResponse(band, d, Options{}, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p.GainDB) > 0.1 {
			t.Errorf("f=%g: passband gain %g dB", p.Freq, p.GainDB)
		}
		if math.Abs(p.PhaseErr) > 0.02 {
			t.Errorf("f=%g: phase error %g rad", p.Freq, p.PhaseErr)
		}
	}
	if r := PassbandRipple(pts, band); r > 0.1 {
		t.Errorf("ripple %g dB", r)
	}
}

func TestFrequencyResponseImprovesWithTaps(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	// Probe near the band edge, where truncation hurts most.
	freqs := []float64{958e6, 1.042e9}
	ripple := func(half int) float64 {
		pts, err := FrequencyResponse(band, d, Options{HalfTaps: half}, freqs)
		if err != nil {
			t.Fatal(err)
		}
		return PassbandRipple(pts, band)
	}
	r10, r45 := ripple(10), ripple(45)
	if r45 >= r10 {
		t.Errorf("edge ripple did not improve with taps: %g vs %g dB", r10, r45)
	}
}

func TestFrequencyResponseValidation(t *testing.T) {
	band := Band{FLow: 955e6, B: 90e6}
	if _, err := FrequencyResponse(band, 180e-12, Options{}, nil); err == nil {
		t.Error("no probes must fail")
	}
	if _, err := FrequencyResponse(band, 180e-12, Options{}, []float64{-1}); err == nil {
		t.Error("negative probe must fail")
	}
}

func TestStopbandRejection(t *testing.T) {
	pts := []ResponsePoint{
		{Freq: 900e6, GainDB: -35},
		{Freq: 1e9, GainDB: 0.01},
		{Freq: 1.1e9, GainDB: -42},
	}
	band := Band{FLow: 955e6, B: 90e6}
	if got := StopbandRejection(pts, band); got != -35 {
		t.Errorf("stopband %g", got)
	}
	if got := PassbandRipple(pts, band); got != 0.01 {
		t.Errorf("ripple %g", got)
	}
}

// sineTestReconstructor builds a 200-sample reconstructor at t0 = 100 ns and
// D = 0.9·OptimalD over two fixed sums of sinusoids, the capture the At
// oracle tests share.
func sineTestReconstructor(t *testing.T, band Band) *Reconstructor {
	t.Helper()
	n := 200
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = math.Sin(0.7*float64(i)) + 0.3*math.Cos(0.11*float64(i))
		ch1[i] = math.Sin(0.7*float64(i)+0.2) - 0.2*math.Cos(0.13*float64(i))
	}
	rec, err := NewReconstructor(band, band.OptimalD()*0.9, 1e-7, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestAtMatchesReferenceImplementation(t *testing.T) {
	// The phasor-recurrence fast path must agree with the direct kernel
	// evaluation to near machine precision, across bands including the
	// integer-positioned (s0 == 0) case.
	for _, band := range []Band{
		{FLow: 955e6, B: 90e6},
		{FLow: 900e6, B: 90e6}, // integer positioned
		{FLow: 2.164e9, B: 72e6},
	} {
		tt := band.T()
		rec := sineTestReconstructor(t, band)
		lo, hi := rec.ValidRange()
		for i := 0; i <= 200; i++ {
			tv := lo + (hi-lo)*float64(i)/200
			fast := rec.At(tv)
			ref := rec.atReference(tv)
			if math.Abs(fast-ref) > 1e-9*(1+math.Abs(ref)) {
				t.Fatalf("band %+v t=%g: fast %g vs reference %g", band, tv, fast, ref)
			}
		}
		// Exactly on a sample instant (the dt -> 0 branch).
		tv := 1e-7 + 50*tt
		if math.Abs(rec.At(tv)-rec.atReference(tv)) > 1e-9 {
			t.Error("on-sample branch mismatch")
		}
	}
}
