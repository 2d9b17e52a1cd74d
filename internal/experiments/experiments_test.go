package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pnbs"
)

func TestRunFig3a(t *testing.T) {
	r := RunFig3a(0)
	if r.NMax != 3 || len(r.FhOverB) != 61 {
		t.Fatalf("defaults: %d curves, %d pts", r.NMax, len(r.FhOverB))
	}
	// n=1 lower boundary at fH/B = 2 is fs/B = 4.
	c1 := r.Curves[1]
	idx := 10 // axis [1,7] with 61 pts: 1 + 10*0.1 = 2.0
	if math.Abs(r.FhOverB[idx]-2) > 1e-9 || math.Abs(c1[0][idx]-4) > 1e-9 {
		t.Errorf("axis/boundary mismatch: %g -> %g", r.FhOverB[idx], c1[0][idx])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 3a") {
		t.Error("render header")
	}
}

func TestRunFig3b(t *testing.T) {
	r, err := RunFig3b()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Windows) < 20 {
		t.Fatalf("only %d windows", len(r.Windows))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Fig. 3b") || !strings.Contains(out, "90.2222") {
		t.Errorf("render content:\n%s", out)
	}
}

func fastSetup() PaperSetup {
	s := DefaultPaperSetup()
	s.NTimes = 80
	return s
}

func TestRunFig5UniqueMinimum(t *testing.T) {
	r, err := RunFig5(fastSetup(), 29)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ArgMin-r.DTrue) > 6e-12 {
		t.Errorf("argmin %.1f ps, true %.1f ps", r.ArgMin*1e12, r.DTrue*1e12)
	}
	// The curve must decrease toward the minimum from both sides.
	if r.Costs[0] < r.Costs[len(r.Costs)/2] || r.Costs[len(r.Costs)-1] < r.Costs[len(r.Costs)/2] {
		t.Error("cost curve shape wrong")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "argmin") {
		t.Error("render")
	}
}

func TestRunFig6Convergence(t *testing.T) {
	// Paper N = 300: the final accuracy below is jitter-variance limited.
	r, err := RunFig6(DefaultPaperSetup(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) != 4 {
		t.Fatalf("%d traces", len(r.Traces))
	}
	for _, tr := range r.Traces {
		if math.Abs(tr.Result.DHat-r.DTrue) > 1.5e-12 {
			t.Errorf("D0 %.0f ps: error %.3f ps", tr.D0*1e12,
				math.Abs(tr.Result.DHat-r.DTrue)*1e12)
		}
		if tr.Result.Iterations >= 20 {
			t.Errorf("D0 %.0f ps: %d iterations (paper: < 20)", tr.D0*1e12, tr.Result.Iterations)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Error("render")
	}
}

func TestRunTable1Shape(t *testing.T) {
	// Full paper N = 300: the LMS accuracy bound below is jitter-variance
	// limited and needs the full cost-sample count.
	r, err := RunTable1(DefaultPaperSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Paper shape (Table I): the adapted [14] baseline errs at the ps to
	// tens-of-ps level with a strong omega0 dependence, while LMS is
	// sub-picosecond, identical from both starting estimates, and its
	// reconstruction error sits at the jitter/quantization floor.
	sineA, sineB := r.Rows[0].AbsErr, r.Rows[1].AbsErr
	if sineA < 2e-12 && sineB < 2e-12 {
		t.Errorf("baseline too accurate (%.2f, %.2f ps): frequency sensitivity lost",
			sineA*1e12, sineB*1e12)
	}
	ratio := sineA / sineB
	if ratio > 1 {
		ratio = 1 / ratio
	}
	if ratio > 0.67 {
		t.Errorf("baseline rows too similar (%.2f vs %.2f ps): omega0 sensitivity not visible",
			sineA*1e12, sineB*1e12)
	}
	lmsA, lmsB := r.Rows[2], r.Rows[3]
	if lmsA.AbsErr > 2e-12 || lmsB.AbsErr > 2e-12 {
		t.Errorf("LMS abs errors %.3f / %.3f ps too large", lmsA.AbsErr*1e12, lmsB.AbsErr*1e12)
	}
	if math.Abs(lmsA.AbsErr-lmsB.AbsErr) > 0.2e-12 {
		t.Errorf("LMS not start-independent: %.3f vs %.3f ps", lmsA.AbsErr*1e12, lmsB.AbsErr*1e12)
	}
	if r.FloorErr <= 0 || r.FloorErr > 0.05 {
		t.Errorf("reconstruction floor %.3g implausible", r.FloorErr)
	}
	for _, lms := range []Table1Row{lmsA, lmsB} {
		if lms.ReconErr > 1.5*r.FloorErr {
			t.Errorf("%s recon err %.3g far above floor %.3g", lms.Label, lms.ReconErr, r.FloorErr)
		}
	}
	// "Who wins": the worse baseline row must reconstruct worse than LMS.
	if math.Max(r.Rows[0].ReconErr, r.Rows[1].ReconErr) < lmsA.ReconErr {
		t.Error("baseline unexpectedly beats LMS in reconstruction")
	}
	// The idealised coherent-fit adaptation brackets from below: sub-ps at
	// both frequencies.
	if len(r.AuxRows) != 2 {
		t.Fatalf("%d auxiliary rows", len(r.AuxRows))
	}
	for _, aux := range r.AuxRows {
		if aux.AbsErr > 1e-12 {
			t.Errorf("%s: %.3f ps, want sub-ps", aux.Label, aux.AbsErr*1e12)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("render")
	}
}

func TestRunEq4BoundTracksMeasurement(t *testing.T) {
	r, err := RunEq4(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.DD1Pct-1.59e-12) > 0.3e-12 {
		t.Errorf("Eq. (5) dD = %.2f ps, want ~1.6 (paper rounds to 2)", r.DD1Pct*1e12)
	}
	for _, p := range r.Points {
		// First-order bound: measurement within a factor ~[0.1, 2] of it
		// across the small-dD region.
		if p.DeltaD <= 4e-12 {
			ratio := p.Measured / p.Bound
			if ratio < 0.1 || ratio > 2 {
				t.Errorf("dD %.2f ps: measured/bound = %.2f", p.DeltaD*1e12, ratio)
			}
		}
	}
	// Monotone growth with dD.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Measured < r.Points[i-1].Measured*0.8 {
			t.Error("measured error not growing with dD")
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Eq. (4)") {
		t.Error("render")
	}
}

func TestRunDSweep(t *testing.T) {
	r, err := RunDSweep(core.PaperScenario().Band(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep minimum should be within ~25 % of the analytic optimum.
	if math.Abs(r.BestD-r.OptimalD)/r.OptimalD > 0.4 {
		t.Errorf("sweep best %.0f ps vs optimal %.0f ps", r.BestD*1e12, r.OptimalD*1e12)
	}
	if len(r.Forbidden) == 0 {
		t.Error("no forbidden delays listed")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "forbidden") {
		t.Error("render")
	}
	if _, err := RunDSweep(pnbs.Band{}, 0); err == nil {
		t.Error("bad band must fail")
	}
}

func TestRunNoiseFold(t *testing.T) {
	r, err := RunNoiseFold()
	if err != nil {
		t.Fatal(err)
	}
	// Folding: reconstructed noise far above the in-band share, same order
	// as the total input noise.
	if r.FoldingPenaltyDB < 6 {
		t.Errorf("folding penalty %.1f dB too small", r.FoldingPenaltyDB)
	}
	if r.CapturePenaltyDB < -3 || r.CapturePenaltyDB > 6 {
		t.Errorf("capture penalty %.1f dB implausible", r.CapturePenaltyDB)
	}
	// High-level signal test barely affected.
	if r.SignalErr > 0.05 {
		t.Errorf("signal error %.3g under thermal-scale noise", r.SignalErr)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "folding") {
		t.Error("render")
	}
}

func TestRunAblateShape(t *testing.T) {
	r, err := RunAblate()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// The rectangular design point (KaiserBeta = -1) must run and must be
	// beaten by the paper's beta = 8 taper on reconstruction error.
	var rectErr, kb8Err float64
	for _, row := range r.Rows {
		if row.Param == "kaiserBeta" && row.Value == -1 {
			rectErr = row.ReconErr
		}
		if row.Param == "kaiserBeta" && row.Value == 8 {
			kb8Err = row.ReconErr
		}
	}
	if rectErr == 0 || kb8Err == 0 {
		t.Error("kaiserBeta sweep missing the rectangular or beta=8 point")
	} else if kb8Err >= rectErr {
		t.Errorf("taper did not help: beta=8 %.4f vs rect %.4f", kb8Err, rectErr)
	}
	byParam := map[string][]AblateRow{}
	for _, row := range r.Rows {
		byParam[row.Param] = append(byParam[row.Param], row)
	}
	// Jitter sweep: zero jitter must be essentially exact, and both the
	// skew error and the reconstruction error must grow with jitter.
	jit := byParam["jitterPS"]
	if jit[0].SkewErrPS > 0.05 {
		t.Errorf("zero-jitter skew error %.3f ps", jit[0].SkewErrPS)
	}
	if !(jit[len(jit)-1].ReconErr > jit[0].ReconErr*3) {
		t.Error("reconstruction error does not grow with jitter")
	}
	// NTimes sweep: the largest N must beat the smallest N.
	nt := byParam["nTimes"]
	if nt[len(nt)-1].SkewErrPS > nt[0].SkewErrPS {
		t.Errorf("more cost samples did not help: %.2f -> %.2f ps",
			nt[0].SkewErrPS, nt[len(nt)-1].SkewErrPS)
	}
	// Minimiser duel: both find the same minimum; golden-section uses
	// fewer evaluations when a full bracket is available.
	if mathAbs(r.GoldenErrPS-r.LMSErrPS) > 0.5 {
		t.Errorf("minimisers disagree: %.3f vs %.3f ps", r.GoldenErrPS, r.LMSErrPS)
	}
	if r.GoldenEvals <= 0 || r.LMSEvals <= 0 {
		t.Error("eval counters")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "minimiser") {
		t.Error("render")
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRunYieldExperiment(t *testing.T) {
	r, err := RunYieldExperiment(6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if r.InSpec.Yield != 1 {
		t.Errorf("in-spec yield %.2f: the instrument produced false alarms", r.InSpec.Yield)
	}
	if r.Marginal.Yield >= 1 {
		t.Error("marginal lot should show fallout")
	}
	if r.Marginal.Passes == 0 {
		t.Error("marginal lot should not be entirely dead")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "yield") {
		t.Error("render")
	}
}

func TestRunAveragingReducesError(t *testing.T) {
	r, err := RunAveraging([]int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.Rows[1].SkewErrPS >= r.Rows[0].SkewErrPS {
		t.Errorf("averaging did not help: %.3f -> %.3f ps",
			r.Rows[0].SkewErrPS, r.Rows[1].SkewErrPS)
	}
	// The residual jitter-induced bias keeps the K=16 error finite but it
	// must be well below the single-capture error.
	if r.Rows[1].SkewErrPS > 0.6 {
		t.Errorf("K=16 error %.3f ps too large", r.Rows[1].SkewErrPS)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Averaging") {
		t.Error("render")
	}
	if _, err := RunAveraging([]int{0}); err == nil {
		t.Error("K=0 must fail")
	}
}

func TestRunLoopbackFaultMasking(t *testing.T) {
	r, err := RunLoopback()
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: the DUT is out of its Tx budget but inside the
	// end-to-end budget.
	if r.TxEVMTrue <= r.TxLimit || r.TxEVMTrue >= r.E2ELimit {
		t.Fatalf("DUT not marginal: true EVM %.2f%%", r.TxEVMTrue)
	}
	// Loopback through the golden Rx masks the fault (escape)...
	if !r.LoopbackPass {
		t.Error("loopback should pass (that IS the fault-masking escape)")
	}
	// ...while the PNBS BIST rejects the unit.
	if r.PNBSPass {
		t.Error("PNBS BIST should reject the marginal Tx")
	}
	// The PNBS path measures the true Tx EVM closely.
	if mathAbs(r.PNBSEVM-r.TxEVMTrue) > 1.5 {
		t.Errorf("PNBS EVM %.2f%% vs truth %.2f%%", r.PNBSEVM, r.TxEVMTrue)
	}
	// A nominal receiver pushes the escaped unit past the e2e budget.
	if r.FieldEVM <= r.E2ELimit {
		t.Errorf("field EVM %.2f%% should exceed the e2e limit", r.FieldEVM)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "masking") {
		t.Error("render")
	}
}

func TestRunFilterResp(t *testing.T) {
	r, err := RunFilterResp()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Taps) != 5 || len(r.Points) == 0 {
		t.Fatalf("shape: %d tap points, %d probes", len(r.Taps), len(r.Points))
	}
	// The paper's 61-tap filter: flat passband, decent stopband.
	idx61 := -1
	for i, n := range r.Taps {
		if n == 61 {
			idx61 = i
		}
	}
	if idx61 < 0 {
		t.Fatal("61-tap row missing")
	}
	// The probes reach within 2 MHz of the band edges, where truncation
	// bites hardest: ~0.5 dB there is the honest figure for 61 taps.
	if r.Ripple[idx61] > 1.0 {
		t.Errorf("61-tap passband ripple %.3f dB", r.Ripple[idx61])
	}
	if r.Stopband[idx61] > -20 {
		t.Errorf("61-tap stopband %.1f dB", r.Stopband[idx61])
	}
	// Longer filters must not be worse in ripple.
	if r.Ripple[len(r.Ripple)-1] > r.Ripple[0] {
		t.Error("ripple did not improve with taps")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "61-tap") {
		t.Error("render")
	}
}

func TestRunMaskBISTMatrixSmallScale(t *testing.T) {
	r, err := RunMaskBIST(0.35)
	if err != nil {
		t.Fatal(err)
	}
	if r.Escapes != 0 || r.Alarms != 0 {
		t.Fatalf("detection matrix: %d escapes, %d alarms", r.Escapes, r.Alarms)
	}
	if len(r.Rows) < 10 {
		t.Errorf("only %d units scored", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Correct {
			t.Errorf("unit %s scored wrong", row.Unit)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "escapes: 0") {
		t.Error("render")
	}
}

func TestRunFlexAllPass(t *testing.T) {
	r, err := RunFlex(0.35)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 6 {
		t.Fatalf("only %d configurations", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.MaskPass {
			t.Errorf("%s failed its mask", row.Label)
		}
		if row.SkewErrPS > 5 {
			t.Errorf("%s skew error %.2f ps", row.Label, row.SkewErrPS)
		}
		// The PNBS total rate never exceeds the best PBS rate.
		if row.PNBSRate > row.PBSMinRate+1e-3 {
			t.Errorf("%s: PNBS rate above PBS minimum", row.Label)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "PNBS") {
		t.Error("render")
	}
}
