package experiments

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

// The golden regression net: every experiments.Run* entry point runs at a
// reduced-scale configuration (each well under a second) and is compared
// field-by-field against a committed vector. Regenerate after an intended
// behaviour change with
//
//	go test ./internal/experiments -run Golden -update
//
// and review the diff like any other code change — the diff IS the
// experiment-output change the PR ships.
//
// Pinning is two-tier (see DESIGN.md, "Golden pinning policy"):
//
//   - Estimate-stage leaves — anything the reassociated fused cost kernel
//     feeds: cost values and histories (rel <= 1e-9), delay estimates and
//     their histories (abs <= 1 fs), and scalars derived from a delay
//     estimate such as reconstruction errors (rel 1e-9 with a 1 fs-scale
//     absolute floor). These carry an explicit tolerance Rule below.
//   - Everything else — captures, measurements, mask margins, verdicts,
//     counters — is byte-exact (the zero-Tol default). If a kernel change
//     moves one of these leaves, the golden fails and the diff gets
//     reviewed; tolerances never silently absorb a physics change.
func goldenCheck(t *testing.T, name string, v any, rules ...testkit.Rule) {
	t.Helper()
	testkit.Golden(t, filepath.Join("testdata", "golden", name+".json"), v,
		testkit.Options{Rules: rules})
}

// The estimate-stage tolerance tiers.
var (
	// costTol bounds fused-kernel cost leaves: the reassociated evaluation
	// order is allowed to drift the value within 1e-9 relative of the
	// per-instant serial oracle (observed drift ~1e-12).
	costTol = testkit.Tol{Rel: 1e-9}
	// delayTol bounds delay estimates to 1 fs absolute — 1000x below the
	// 1 ps average estimation error the paper reports.
	delayTol = testkit.Tol{Abs: 1e-15}
	// psTol is delayTol for leaves expressed in picoseconds.
	psTol = testkit.Tol{Abs: 1e-3, Rel: 1e-9}
	// derivedTol covers dimensionless scalars computed from a delay
	// estimate (relative errors, reconstruction errors).
	derivedTol = testkit.Tol{Abs: 1e-15, Rel: 1e-9}
)

// goldenSetup is the reduced-scale PaperSetup shared by the capture-based
// goldens: the paper geometry with fewer cost instants.
func goldenSetup() PaperSetup {
	s := DefaultPaperSetup()
	s.NTimes = 60
	return s
}

func TestGoldenFig3a(t *testing.T) {
	goldenCheck(t, "fig3a", RunFig3a(21))
}

func TestGoldenFig3b(t *testing.T) {
	r, err := RunFig3b()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "fig3b", r)
}

func TestGoldenFig5(t *testing.T) {
	r, err := RunFig5(goldenSetup(), 15)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "fig5", r,
		testkit.Rule{Pattern: "Costs/**", Tol: costTol},
		testkit.Rule{Pattern: "ArgMin", Tol: delayTol},
	)
}

func TestGoldenFig6(t *testing.T) {
	r, err := RunFig6(goldenSetup(), []float64{100e-12, 350e-12}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The LMS trace tail is the most FP-sensitive number in the repo (a
	// gradient ratio near the cost minimum), so the histories keep a
	// looser relative band than the headline cost tier.
	goldenCheck(t, "fig6", r,
		testkit.Rule{Pattern: "Traces/*/Result/CostHistory/**", Tol: testkit.Tol{Rel: 1e-6}},
		testkit.Rule{Pattern: "Traces/*/Result/DHistory/**", Tol: testkit.Tol{Rel: 1e-6, Abs: 1e-16}},
		testkit.Rule{Pattern: "Traces/*/Result/DHat", Tol: delayTol},
	)
}

func TestGoldenTable1(t *testing.T) {
	r, err := RunTable1(goldenSetup())
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "table1", r,
		testkit.Rule{Pattern: "*Rows/*/AbsErr", Tol: delayTol},
		testkit.Rule{Pattern: "*Rows/*/RelErr", Tol: derivedTol},
		testkit.Rule{Pattern: "*Rows/*/ReconErr", Tol: derivedTol},
		testkit.Rule{Pattern: "FloorErr", Tol: derivedTol},
	)
}

func TestGoldenEq4(t *testing.T) {
	r, err := RunEq4([]float64{1e-12, 4e-12, 16e-12})
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "eq4", r)
}

func TestGoldenDSweep(t *testing.T) {
	r, err := RunDSweep(core.PaperScenario().Band(), 26)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "dsweep", r)
}

func TestGoldenAveraging(t *testing.T) {
	r, err := RunAveraging([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "averaging", r,
		testkit.Rule{Pattern: "Rows/*/SkewErrPS", Tol: psTol},
	)
}

func TestGoldenNoiseFold(t *testing.T) {
	r, err := RunNoiseFold()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "noisefold", r)
}

func TestGoldenYield(t *testing.T) {
	r, err := RunYieldExperiment(4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "yield", r,
		testkit.Rule{Pattern: "*/Units/*/SkewPS", Tol: psTol},
		testkit.Rule{Pattern: "*/WorstSkewPS", Tol: psTol},
	)
}

func TestGoldenMaskBIST(t *testing.T) {
	r, err := RunMaskBIST(0.3)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "maskbist", r,
		testkit.Rule{Pattern: "Rows/*/Report/DHat", Tol: delayTol},
		testkit.Rule{Pattern: "Rows/*/Report/LMS/DHat", Tol: delayTol},
		testkit.Rule{Pattern: "Rows/*/Report/LMS/CostHistory/**", Tol: costTol},
		testkit.Rule{Pattern: "Rows/*/Report/LMS/DHistory/**", Tol: delayTol},
		testkit.Rule{Pattern: "Rows/*/Report/ReconRelErr", Tol: derivedTol},
	)
}

func TestGoldenFlex(t *testing.T) {
	r, err := RunFlex(0.3)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "flex", r,
		testkit.Rule{Pattern: "Rows/*/SkewErrPS", Tol: psTol},
		testkit.Rule{Pattern: "Rows/*/ReconErr", Tol: derivedTol},
	)
}

func TestGoldenAblate(t *testing.T) {
	// One value per grid around the operating point keeps the sweep under a
	// second; RunAblate()'s full default grid stays covered by
	// TestRunAblateShape.
	r, err := RunAblateSweep(AblateSweep{
		HalfTaps:   []int{30},
		KaiserBeta: []float64{-1, 8},
		NTimes:     []int{60},
		Jitter:     []float64{0, 3e-12},
		BaseNTimes: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "ablate", r,
		testkit.Rule{Pattern: "Rows/*/SkewErrPS", Tol: psTol},
		testkit.Rule{Pattern: "Rows/*/ReconErr", Tol: derivedTol},
		testkit.Rule{Pattern: "GoldenErrPS", Tol: psTol},
		testkit.Rule{Pattern: "LMSErrPS", Tol: psTol},
	)
}

func TestGoldenLoopback(t *testing.T) {
	r, err := RunLoopback()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "loopback", r)
}

func TestGoldenFilterResp(t *testing.T) {
	r, err := RunFilterResp()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "filterresp", r)
}

// TestGoldenCoverage pins the default-grid detection matrix at the same
// reduced scale the campaign property tests use. The golden carries the
// documented escapes (the backed-off 16QAM stimulus shipping PA faults),
// so a physics change in any layer below — faults, stimuli, estimator,
// mask — shows up here as a reviewable diff. Every leaf is byte-exact:
// detection verdicts must not move under any tolerance.
func TestGoldenCoverage(t *testing.T) {
	r, err := RunCoverage(nil, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "coverage", r)
}
