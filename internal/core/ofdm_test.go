package core

import (
	"testing"

	"repro/internal/mask"
	"repro/internal/modem"
	"repro/internal/rf"
	"repro/internal/sig"
)

func TestOFDMThroughFullBIST(t *testing.T) {
	// The multistandard claim stretched to a waveform class the paper never
	// simulated: a 64-subcarrier CP-OFDM signal through the complete flow.
	ofdm, err := modem.NewOFDM(modem.OFDMConfig{
		Subcarriers: 64,
		Spacing:     156.25e3,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := fastScenario()
	// Scale to respect the ADC full scale: OFDM PAPR is ~10 dB.
	c.Baseband = sig.ScaleEnv(ofdm, 0.5)
	c.Mask = mask.WidebandMulticarrier10M()
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
		t.Fatalf("healthy OFDM unit failed:\n%s", rep.Summary())
	}
	if rep.SkewErrPS() > 3 {
		t.Errorf("skew error %.3f ps on OFDM", rep.SkewErrPS())
	}
	if rep.ReconRelErr <= 0 || rep.ReconRelErr > 0.06 {
		t.Errorf("reconstruction error %.3g on OFDM, want in (0, 0.06]", rep.ReconRelErr)
	}
}

func TestOFDMWithPACompressionFails(t *testing.T) {
	// OFDM's high PAPR makes it the harshest probe of PA compression.
	ofdm, err := modem.NewOFDM(modem.OFDMConfig{
		Subcarriers: 64,
		Spacing:     156.25e3,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := fastScenario()
	c.Baseband = sig.ScaleEnv(ofdm, 0.5)
	c.Mask = mask.WidebandMulticarrier10M()
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
		t.Fatalf("PA compression escaped under OFDM:\n%s", rep.Summary())
	}
}

func TestCustomBasebandRejectsEVM(t *testing.T) {
	ofdm, _ := modem.NewOFDM(modem.OFDMConfig{Subcarriers: 16, Spacing: 1e6, Seed: 1})
	c := fastScenario()
	c.Baseband = ofdm
	c.EVMTest = true
	if _, err := New(c); err == nil {
		t.Error("EVM with custom baseband must fail")
	}
}

func TestGMSKThroughFullBIST(t *testing.T) {
	gmsk, err := modem.NewCPM(modem.CPMConfig{SymbolRate: 2e6, BT: 0.3, Symbols: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := fastScenario()
	c.Fc = 520e6
	c.B = 32e6
	c.SymbolRate = 2e6
	c.NominalD = 0
	c.TI.DCDE.Max = 0.35 / c.Fc
	c.Baseband = sig.ScaleEnv(gmsk, 0.7)
	c.Mask = mask.WidebandOFDMLike()
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("healthy GMSK unit failed:\n%s", rep.Summary())
	}
	// Constant envelope: a saturated PA must NOT create regrowth — the
	// hallmark of CPM waveforms. Vsat just above the envelope amplitude.
	pa, _ := rf.NewRappPA(1, 0.72, 2)
	c.Tx.PA = pa
	b2, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := b2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Pass {
		t.Fatalf("constant-envelope GMSK through a saturated PA should still pass:\n%s", rep2.Summary())
	}
}
