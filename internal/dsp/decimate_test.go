package dsp

import (
	"math"
	"slices"
	"testing"
)

// TestEnvelopeOversampling pins the factor rule: the smallest over in
// 4..12 whose aliased 2fc image lies beyond 0.6 fs.
func TestEnvelopeOversampling(t *testing.T) {
	cases := []struct {
		name   string
		fc, fs float64
		want   int
		ok     bool
	}{
		{"paper 1 GHz at 90 MHz", 1e9, 90e6, 4, true},
		{"1.45 GHz image lands in band at 4x", 1.45e9, 90e6, 5, true},
		{"baseband carrier never separates", 0, 90e6, 0, false},
	}
	for _, c := range cases {
		over, ok := EnvelopeOversampling(c.fc, c.fs)
		if over != c.want || ok != c.ok {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", c.name, over, ok, c.want, c.ok)
		}
		if !ok {
			continue
		}
		hi := c.fs * float64(over)
		img := math.Mod(2*c.fc, hi)
		if img > hi/2 {
			img = hi - img
		}
		if img <= 0.6*c.fs {
			t.Errorf("%s: image %g Hz inside 0.6 fs at %dx", c.name, img, over)
		}
	}
}

// TestDecimationLowpassShared: one filter per factor, designed as 91 Kaiser
// taps at 0.45/over.
func TestDecimationLowpassShared(t *testing.T) {
	a, err := DecimationLowpass(4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DecimationLowpass(4)
	if a != b {
		t.Error("same factor must return the shared filter")
	}
	ref, err := DesignLowpass(91, 0.45/4, KaiserWin, KaiserBeta(70))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Taps, ref.Taps) {
		t.Error("shared filter taps differ from the direct design")
	}
	if c, _ := DecimationLowpass(5); c == a || len(c.Taps) != 91 {
		t.Error("factor 5 must have its own 91-tap filter")
	}
}
