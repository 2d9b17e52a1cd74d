package repro

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/pnbs"
	"repro/internal/rf"
	"repro/internal/sig"
	"repro/internal/skew"
)

// fastPaper shrinks the paper scenario for integration-test speed.
func fastPaper() core.Config {
	c := core.PaperScenario()
	c.CaptureLen = 900
	c.NTimes = 100
	c.PSDLen = 512
	c.SegLen = 256
	return c
}

func TestFullPipelineDeterministic(t *testing.T) {
	run := func() *core.Report {
		b, err := core.New(fastPaper())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.DHat != b.DHat {
		t.Errorf("DHat not reproducible: %v vs %v", a.DHat, b.DHat)
	}
	if a.ReconRelErr != b.ReconRelErr {
		t.Errorf("reconstruction error not reproducible")
	}
	if a.Mask.WorstMarginDB != b.Mask.WorstMarginDB {
		t.Errorf("mask margin not reproducible")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	b, err := core.New(fastPaper())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back core.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.DHat != rep.DHat || back.Pass != rep.Pass {
		t.Error("JSON round trip lost fields")
	}
}

// TestCrossLayerConsistency drives one signal through independently
// implemented paths and checks they agree: the Tx passband output sampled
// directly, the BP-TIADC capture reconstructed via Kohlenberg, and the
// matched-filter receiver, all referenced to the known symbol stream.
func TestCrossLayerConsistency(t *testing.T) {
	pulse, err := modem.NewSRRC(100e-9, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	syms := modem.QPSK.RandomSymbols(64, 99)
	bb, err := modem.NewShapedEnvelope(syms, pulse)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := rf.NewTransmitter(rf.TxConfig{Fc: 1e9}, bb)
	if err != nil {
		t.Fatal(err)
	}
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	d := band.OptimalD()
	tt := band.T()
	n := 700
	out := tx.Output()
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = out.At(float64(i) * tt)
		ch1[i] = out.At(float64(i)*tt + d)
	}
	rec, err := pnbs.NewReconstructor(band, d, 0, ch0, ch1, pnbs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 1. Waveform-level agreement at off-grid instants.
	lo, hi := rec.ValidRange()
	times := skew.RandomTimes(lo, hi, 300, 5)
	got := rec.AtTimes(times)
	want := sig.SampleAt(out, times)
	if rel := dsp.RelRMSError(got, want); rel > 1e-2 {
		t.Errorf("waveform path disagreement %g", rel)
	}
	// 2. Symbol-level agreement: demodulate the reconstructed envelope.
	grid := make([]complex128, 2048)
	fsEnv := band.B * 4
	gt0 := lo
	for i := range grid {
		v := rec.At(gt0 + float64(i)/fsEnv)
		s, c := math.Sincos(2 * math.Pi * band.Fc() * (gt0 + float64(i)/fsEnv))
		grid[i] = complex(2*v*c, -2*v*s)
	}
	lpf, err := dsp.DesignLowpass(91, 0.11, dsp.KaiserWin, dsp.KaiserBeta(70))
	if err != nil {
		t.Fatal(err)
	}
	dec := lpf.Decimate(grid, 4)
	env, err := sig.NewSampledEnvelope(gt0, 4/fsEnv, dec)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := modem.NewMatchedFilter(pulse, 8)
	if err != nil {
		t.Fatal(err)
	}
	eLo, eHi := env.Span()
	k0 := int(math.Ceil((eLo + 8*100e-9) / 100e-9))
	nSym := int(math.Floor((eHi-8*100e-9)/100e-9)) - k0
	if nSym < 16 {
		t.Fatalf("too few symbols in span (%d)", nSym)
	}
	if nSym > 40 {
		nSym = 40
	}
	rx := mf.Demod(env, k0, nSym)
	ref := make([]complex128, nSym)
	for i := range ref {
		ref[i] = syms[(k0+i)%len(syms)]
	}
	norm, err := modem.NormalizeScaleAndPhase(rx, ref)
	if err != nil {
		t.Fatal(err)
	}
	evm, err := modem.EVM(norm, ref)
	if err != nil {
		t.Fatal(err)
	}
	if evm.RMSPercent > 3 {
		t.Errorf("symbol path EVM %.2f%% through reconstruction", evm.RMSPercent)
	}
	ser, err := modem.SymbolErrorRate(modem.QPSK, norm, ref)
	if err != nil || ser != 0 {
		t.Errorf("symbol errors through the full chain: %g (%v)", ser, err)
	}
}

// TestEndToEndOFDM drives the non-single-carrier waveform through the
// library's public composition path (not the core orchestrator).
func TestEndToEndOFDM(t *testing.T) {
	ofdm, err := modem.NewOFDM(modem.OFDMConfig{Subcarriers: 32, Spacing: 312.5e3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := rf.NewTransmitter(rf.TxConfig{Fc: 1e9}, sig.ScaleEnv(ofdm, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	tt := band.T()
	n := 500
	out := tx.Output()
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = out.At(float64(i) * tt)
		ch1[i] = out.At(float64(i)*tt + d)
	}
	rec, err := pnbs.NewReconstructor(band, d, 0, ch0, ch1, pnbs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := rec.ValidRange()
	times := skew.RandomTimes(lo, hi, 200, 6)
	if rel := dsp.RelRMSError(rec.AtTimes(times), sig.SampleAt(out, times)); rel > 1e-2 {
		t.Errorf("OFDM reconstruction error %g", rel)
	}
}
