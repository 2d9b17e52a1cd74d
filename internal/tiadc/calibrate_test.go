package tiadc

import (
	"math"
	"testing"

	"repro/internal/adc"
	"repro/internal/sig"
)

// mismatchCapture acquires a multitone bandpass signal through channels
// with known gain/offset errors.
func mismatchCapture(t *testing.T, g0, o0, g1, o1 float64, n int) *Capture {
	t.Helper()
	ti, err := New(Config{
		Ch0:  adc.Config{Gain: g0, Offset: o0},
		Ch1:  adc.Config{Gain: g1, Offset: o1},
		DCDE: DCDE{Min: 0, Max: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := sig.Sum{
		&sig.Tone{Amp: 0.7, Freq: 972e6, Phase: 0.3},
		&sig.Tone{Amp: 0.5, Freq: 1.01e9, Phase: 1.1},
	}
	cap0, err := ti.Capture(x, 1/90e6, 180e-12, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return cap0
}

func TestEstimateMismatchRecoversInjectedErrors(t *testing.T) {
	g1 := 0.93
	cap0 := mismatchCapture(t, 1.0, 0.02, g1, -0.015, 4096)
	m, err := EstimateMismatch(cap0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Offset0-0.02) > 2e-3 {
		t.Errorf("offset0 %g, want 0.02", m.Offset0)
	}
	if math.Abs(m.Offset1-(-0.015)) > 2e-3 {
		t.Errorf("offset1 %g, want -0.015", m.Offset1)
	}
	if math.Abs(m.Gain1Over0-g1) > 0.01 {
		t.Errorf("gain ratio %g, want %g", m.Gain1Over0, g1)
	}
}

func TestCorrectedRemovesMismatch(t *testing.T) {
	cap0 := mismatchCapture(t, 1.0, 0.05, 0.9, -0.03, 4096)
	m, err := EstimateMismatch(cap0)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := m.Corrected(cap0)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same acquisition through ideal channels.
	ref := mismatchCapture(t, 1.0, 0, 1.0, 0, 4096)
	var worst float64
	for i := range fixed.Ch0 {
		if d := math.Abs(fixed.Ch0[i] - ref.Ch0[i]); d > worst {
			worst = d
		}
		if d := math.Abs(fixed.Ch1[i] - ref.Ch1[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.01 {
		t.Errorf("residual mismatch %g after correction", worst)
	}
	// Metadata preserved.
	if fixed.ActualD != cap0.ActualD || fixed.T != cap0.T || fixed.T0 != cap0.T0 {
		t.Error("capture metadata lost")
	}
}

func TestMismatchValidation(t *testing.T) {
	if _, err := EstimateMismatch(nil); err == nil {
		t.Error("nil capture must fail")
	}
	tiny := &Capture{Ch0: make([]float64, 4), Ch1: make([]float64, 4)}
	if _, err := EstimateMismatch(tiny); err == nil {
		t.Error("short capture must fail")
	}
	flat := &Capture{Ch0: make([]float64, 32), Ch1: make([]float64, 32)}
	if _, err := EstimateMismatch(flat); err == nil {
		t.Error("DC-only capture must fail")
	}
	var m Mismatch // zero gain ratio
	if _, err := m.Corrected(&Capture{}); err == nil {
		t.Error("zero gain ratio must fail")
	}
	if _, err := (Mismatch{Gain1Over0: 1}).Corrected(nil); err == nil {
		t.Error("nil capture must fail")
	}
}
