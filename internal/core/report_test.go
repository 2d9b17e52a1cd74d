package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mask"
	"repro/internal/skew"
)

func TestSkewErrPS(t *testing.T) {
	r := &Report{DActual: 180e-12, DHat: 182.5e-12}
	if got := r.SkewErrPS(); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("SkewErrPS = %g, want 2.5", got)
	}
	r.DHat = 177.5e-12
	if got := r.SkewErrPS(); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("SkewErrPS = %g, want 2.5 (sign-independent)", got)
	}
}

// TestSummaryAllSections: a fully populated report must render every
// optional block, and a failing one must say FAIL with its reasons.
func TestSummaryAllSections(t *testing.T) {
	r := &Report{
		Scenario:    "unit-test scenario",
		DNominal:    180e-12,
		DActual:     181e-12,
		DHat:        180.9e-12,
		LMS:         skew.LMSResult{Iterations: 7},
		ReconRelErr: 0.004,
		Mask: &mask.Report{
			MaskName:      "test-mask",
			Pass:          false,
			WorstMarginDB: -2.5,
			WorstOffsetHz: 12e6,
		},
		ACPRLowDB:     -41,
		ACPRHighDB:    -40,
		OBWHz:         16e6,
		IRRTested:     true,
		IRRMeasuredDB: 52,
		LOLeakageDBc:  -55,
		EVMTested:     true,
		EVM:           &EVMOutcome{RMSPercent: 1.5, PeakPercent: 4, Symbols: 120},
		ADCChecked:    true,
		ADC:           &ADCCheckResult{SNDRdB: [2]float64{58, 57}},
		Compute:       ComputeBudget{KernelEvals: 3_000_000, CostEvals: 40, PSDSamples: 2048},
		Pass:          false,
		Failures:      []string{"spectral mask test-mask violated by 2.50 dB"},
	}
	s := r.Summary()
	for _, want := range []string{
		"BIST FAIL",
		"unit-test scenario",
		"delay: nominal 180.00 ps",
		"reconstruction error",
		"mask test-mask",
		"ACPR",
		"99% OBW 16.00 MHz",
		"IRR 52.0 dB, LO leakage -55.0 dBc",
		"EVM 1.50% rms / 4.00% peak over 120 symbols",
		"ADC pre-check: SNDR 58.0 / 57.0 dB",
		"compute: 3.0 M kernel evals (40 cost evals, 2048 PSD samples)",
		"failure: spectral mask",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q in:\n%s", want, s)
		}
	}
}

// TestSummaryMinimal: with every optional section disabled the summary must
// omit them and report PASS.
func TestSummaryMinimal(t *testing.T) {
	r := &Report{Scenario: "bare", Pass: true}
	s := r.Summary()
	if !strings.Contains(s, "BIST PASS") {
		t.Errorf("expected PASS in:\n%s", s)
	}
	for _, banned := range []string{"reconstruction error", "mask", "IRR", "EVM", "ADC pre-check", "compute:", "failure:"} {
		if strings.Contains(s, banned) {
			t.Errorf("minimal summary must not contain %q:\n%s", banned, s)
		}
	}
}
