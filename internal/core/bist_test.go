package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rf"
)

// fastScenario shrinks the paper scenario so unit tests stay quick while
// exercising the whole flow.
func fastScenario() Config {
	c := PaperScenario()
	c.CaptureLen = 900
	c.NTimes = 80
	c.PSDLen = 512
	c.SegLen = 256
	return c
}

func TestNewValidation(t *testing.T) {
	c := fastScenario()
	c.Fc = 0
	if _, err := New(c); err == nil {
		t.Error("Fc=0 must fail")
	}
	c = fastScenario()
	c.SymbolRate = 0
	if _, err := New(c); err == nil {
		t.Error("symbol rate 0 must fail")
	}
	c = fastScenario()
	c.B = 3e9
	if _, err := New(c); err == nil {
		t.Error("B >= 2fc must fail")
	}
	c = fastScenario()
	c.SymbolRate = 100e6
	if _, err := New(c); err == nil {
		t.Error("occupied bandwidth above B must fail")
	}
	c = fastScenario()
	c.Constellation = "GMSK"
	if _, err := New(c); err == nil {
		t.Error("unknown constellation must fail")
	}
	c = fastScenario()
	c.B = 100e6 // 2fc/B = 20 exactly: Eq. (9) collision
	if _, err := New(c); err == nil {
		t.Error("infeasible dual-rate configuration must fail")
	}
}

func TestHealthyUnitPasses(t *testing.T) {
	c := fastScenario()
	c.GroundTruth = true
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("healthy unit failed:\n%s", rep.Summary())
	}
	// Delay identification is jitter-variance limited: with 3 ps rms clock
	// jitter the cost minimum wanders by a few ps (the induced spectral
	// error pi B (k+1) dD stays below the jitter floor, so the BIST verdict
	// is unaffected). The paper's <0.1 ps figure corresponds to the
	// noiseless case, which TestLMSConvergesFromPaperStarts covers.
	if rep.SkewErrPS() > 3 {
		t.Errorf("skew error %.3f ps too large", rep.SkewErrPS())
	}
	// Reconstruction error ~ the paper's 0.84 % regime (jitter + 10-bit
	// quantization floor). Allow a generous envelope.
	if rep.ReconRelErr <= 0 || rep.ReconRelErr > 0.05 {
		t.Errorf("reconstruction error %.3g, want in (0, 0.05]", rep.ReconRelErr)
	}
	if rep.Mask == nil || !rep.Mask.Pass {
		t.Error("mask check missing or failed")
	}
	if rep.RefMask == nil || !rep.RefMask.Pass {
		t.Error("reference mask missing or failed for a healthy unit")
	}
	if rep.LMS.Iterations >= 30 {
		t.Errorf("LMS took %d iterations", rep.LMS.Iterations)
	}
	s := rep.Summary()
	for _, frag := range []string{"PASS", "delay", "mask", "ACPR"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}

func TestDCDEBiasIsAbsorbed(t *testing.T) {
	// The DCDE bias makes the actual delay differ from the setting; the
	// LMS must estimate the ACTUAL delay, keeping the unit passing.
	c := fastScenario()
	f, err := FaultByName("dcde-bias")
	if err != nil {
		t.Fatal(err)
	}
	f.Apply(&c)
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("benign DCDE bias caused a false alarm:\n%s", rep.Summary())
	}
	if math.Abs(rep.DActual-rep.DNominal) < 30e-12 {
		t.Fatal("fault not injected")
	}
	if rep.SkewErrPS() > 3 {
		t.Errorf("LMS did not absorb the bias: err %.3f ps", rep.SkewErrPS())
	}
}

func TestPACompressionFaultDetected(t *testing.T) {
	c := fastScenario()
	c.GroundTruth = true
	f, _ := FaultByName("pa-compression")
	f.Apply(&c)
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("PA compression escaped:\n%s", rep.Summary())
	}
	if rep.Mask == nil || rep.Mask.Pass {
		t.Error("mask should catch spectral regrowth")
	}
	// The BIST verdict must agree with the golden reference instrument.
	if rep.RefMask == nil {
		t.Fatal("reference mask missing with GroundTruth set")
	}
	if rep.RefMask.Pass {
		t.Error("reference instrument disagrees: fault should be real")
	}
}

func TestIQImbalanceFaultDetected(t *testing.T) {
	c := fastScenario()
	f, _ := FaultByName("iq-imbalance")
	f.Apply(&c)
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IRRTested {
		t.Fatal("IRR test did not run")
	}
	if rep.Pass {
		t.Fatalf("IQ imbalance escaped (IRR %.1f dB):\n%s", rep.IRRMeasuredDB, rep.Summary())
	}
	// 2 dB / 12 deg gives IRR ~ 19 dB; the BIST should measure something
	// in that region through the reconstruction path.
	want := rf.FromImbalanceDB(2, 12, 0).ImageRejectionDB()
	if math.Abs(rep.IRRMeasuredDB-want) > 4 {
		t.Errorf("measured IRR %.1f dB vs analytic %.1f dB", rep.IRRMeasuredDB, want)
	}
}

func TestLOLeakageFaultDetected(t *testing.T) {
	c := fastScenario()
	f, _ := FaultByName("lo-leakage")
	f.Apply(&c)
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("LO leakage escaped (%.1f dBc):\n%s", rep.LOLeakageDBc, rep.Summary())
	}
	if rep.LOLeakageDBc < -30 {
		t.Errorf("leakage measured %.1f dBc, expected above -30", rep.LOLeakageDBc)
	}
}

func TestDeadGainFaultDetected(t *testing.T) {
	c := fastScenario()
	f, _ := FaultByName("dead-gain")
	f.Apply(&c)
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("dead gain escaped:\n%s", rep.Summary())
	}
}

func TestMildIQPasses(t *testing.T) {
	c := fastScenario()
	f, _ := FaultByName("mild-iq")
	f.Apply(&c)
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("mild IQ caused a false alarm (IRR %.1f dB):\n%s", rep.IRRMeasuredDB, rep.Summary())
	}
}

func TestFaultCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) < 5 {
		t.Fatalf("catalog has %d faults", len(cat))
	}
	names := map[string]bool{}
	for _, f := range cat {
		if f.Name == "" || f.Description == "" || f.Apply == nil {
			t.Errorf("incomplete fault %+v", f)
		}
		if names[f.Name] {
			t.Errorf("duplicate fault %s", f.Name)
		}
		names[f.Name] = true
	}
	if _, err := FaultByName("nope"); err == nil {
		t.Error("unknown fault must error")
	}
}

func TestMultistandardScenariosFeasible(t *testing.T) {
	for _, c := range MultistandardScenarios() {
		c.CaptureLen = 700
		c.NTimes = 40
		c.PSDLen = 256
		c.SegLen = 128
		if _, err := New(c); err != nil {
			t.Errorf("scenario %s @ %g: %v", c.Constellation, c.Fc, err)
		}
	}
}

func TestPaperScenarioDefaults(t *testing.T) {
	c := PaperScenario().withDefaults()
	if c.NominalD != 180e-12 {
		t.Error("paper D")
	}
	if c.B != 90e6 || c.Fc != 1e9 || c.NTimes != 300 {
		t.Error("paper parameters")
	}
	b, err := New(PaperScenario())
	if err != nil {
		t.Fatal(err)
	}
	if o := b.opt(); o.HalfTaps != 30 || o.KaiserBeta != 0 {
		t.Errorf("reconstruction options %+v, want the paper's 61-tap β = 8 default", o)
	}
	if b.Band().Fc() != 1e9 {
		t.Error("band centre")
	}
	if b.Transmitter() == nil || b.Baseband() == nil {
		t.Error("accessors")
	}
}

// hashSymbols is FNV-1a over the little-endian bit patterns: pinned values
// keep the gain-cache key stable across implementations.
func TestHashSymbolsPinned(t *testing.T) {
	syms := []complex128{complex(0.7071067811865476, -0.7071067811865476), complex(-1, 0), complex(0, 3.25e-7)}
	if h := hashSymbols(syms); h != 0x9c94faf7099630f8 {
		t.Errorf("hashSymbols = %#x, want 0x9c94faf7099630f8", h)
	}
	if h := hashSymbols(nil); h != 0xcbf29ce484222325 {
		t.Errorf("hashSymbols(nil) = %#x, want the FNV-1a offset basis", h)
	}
}

// TestComputeBudgetAccounted pins the analytic kernel count: per cost
// evaluation NTimes instants × 2 reconstructions, plus the mask grid at the
// scenario's envelope oversampling (4× in the paper band, 6× for 8PSK at
// 450 MHz with B = 44 MHz), plus the fidelity check's NTimes instants, each
// touching 2·61 taps.
func TestComputeBudgetAccounted(t *testing.T) {
	psk8 := ScaleAcquisition(MultistandardScenarios()[2], 0.35)
	for _, tc := range []struct {
		name string
		cfg  Config
		over int64
	}{
		{"paper", fastScenario(), 4},
		{"8PSK", psk8, 6},
	} {
		for _, truth := range []bool{false, true} {
			cfg := tc.cfg
			cfg.GroundTruth = truth
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Compute.CostEvals <= 0 || rep.Compute.PSDSamples != b.cfg.PSDLen {
				t.Fatalf("%s truth=%v: compute budget incomplete: %+v", tc.name, truth, rep.Compute)
			}
			const taps = 2 * 61
			nt := int64(b.cfg.NTimes)
			want := int64(rep.Compute.CostEvals)*nt*2*taps + int64(b.cfg.PSDLen)*tc.over*taps
			if truth {
				want += nt * taps // the fidelity check at the cost instants
			}
			if rep.Compute.KernelEvals != want {
				t.Errorf("%s truth=%v: kernel evals %d, want %d", tc.name, truth, rep.Compute.KernelEvals, want)
			}
			if !strings.Contains(rep.Summary(), "compute:") {
				t.Errorf("%s truth=%v: summary missing compute line", tc.name, truth)
			}
		}
	}
}

func TestOccupiedBandwidthReported(t *testing.T) {
	b, err := New(fastScenario())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 10 MHz QPSK with alpha = 0.5 occupies ~15 MHz; the 99 % OBW through
	// the reconstruction sits near (slightly under) that.
	if rep.OBWHz < 10e6 || rep.OBWHz > 18e6 {
		t.Errorf("99%% OBW %.2f MHz, want ~13-15", rep.OBWHz/1e6)
	}
	if !strings.Contains(rep.Summary(), "OBW") {
		t.Error("summary missing OBW")
	}
}
