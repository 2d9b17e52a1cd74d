package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/modem"
	"repro/internal/rf"
	"repro/internal/sig"
)

// LoopbackResult contrasts the classic loopback BIST with the paper's
// direct-observation PNBS BIST on the same marginal transmitter — the
// fault-masking argument of Section I, executed.
type LoopbackResult struct {
	// TxEVMTrue is the transmitter's own modulation error (ground truth).
	TxEVMTrue float64
	// LoopbackEVM is the end-to-end EVM measured through an exceptionally
	// good receiver.
	LoopbackEVM float64
	// FieldEVM is the end-to-end EVM through a nominal receiver — what the
	// escaped unit will do in the field.
	FieldEVM float64
	// PNBSEVM is the Tx EVM measured directly through the nonuniform
	// reconstruction path.
	PNBSEVM float64
	// Limits used by the two test programs.
	TxLimit, E2ELimit float64
	// Verdicts.
	LoopbackPass bool
	PNBSPass     bool
}

// RunLoopback builds a marginal transmitter (IQ imbalance pushing its
// modulation error just past the Tx budget), measures it (a) in loopback
// through a golden receiver against the end-to-end spec, and (b) with the
// PNBS BIST against the transmitter's own budget.
func RunLoopback() (*LoopbackResult, error) {
	res := &LoopbackResult{TxLimit: 6, E2ELimit: 10}

	// The marginal DUT: ~22 dB IRR contributes ~8 % EVM — out of the 6 %
	// Tx budget but inside the 10 % end-to-end budget on its own.
	marginalIQ := rf.FromImbalanceDB(1.0, 6, 0)

	cfg := core.PaperScenario()
	cfg.CaptureLen = 1400
	cfg.NTimes = 150
	cfg.PSDLen = 1024
	cfg.SegLen = 256
	cfg.Tx.IQ = marginalIQ
	cfg.Mask = nil // isolate the modulation-quality test
	cfg.EVMTest = true
	cfg.MaxEVMPercent = res.TxLimit
	b, err := core.New(cfg)
	if err != nil {
		return nil, err
	}

	// Ground truth: demodulate the Tx envelope directly.
	mf, err := modem.NewMatchedFilter(b.Baseband().Pulse, 8)
	if err != nil {
		return nil, err
	}
	evmOf := func(env sig.Envelope, k0, n int) (float64, error) {
		r, err := mf.EVM(env, b.Baseband().Symbols, k0, n)
		return r.RMSPercent, err
	}
	truth, err := evmOf(b.Transmitter().OutputEnvelope(), 4, 48)
	if err != nil {
		return nil, err
	}
	res.TxEVMTrue = truth

	// Loopback through a receiver: sample the RF output, demodulate.
	loop := func(rxCfg rf.RxConfig) (float64, error) {
		rx, err := rf.NewReceiver(rxCfg)
		if err != nil {
			return 0, err
		}
		fs := 8 * cfg.SymbolRate
		nSym := 48
		span := 8 / cfg.SymbolRate
		n := int((float64(nSym)/cfg.SymbolRate + 4*span) * fs)
		t0 := -2 * span
		bb, err := rx.SampleBaseband(b.Transmitter().Output(), fs, t0, n)
		if err != nil {
			return 0, err
		}
		env, err := sig.NewSampledEnvelope(t0, 1/fs, bb)
		if err != nil {
			return 0, err
		}
		lo, hi := env.Span()
		k0 := int(math.Ceil((lo + span) * cfg.SymbolRate))
		kEnd := int(math.Floor((hi - span) * cfg.SymbolRate))
		if kEnd-k0 < 16 {
			return 0, fmt.Errorf("experiments: loopback window too short")
		}
		if kEnd-k0 > nSym {
			kEnd = k0 + nSym
		}
		return evmOf(env, k0, kEnd-k0)
	}
	golden, err := loop(rf.RxConfig{Fc: cfg.Fc, Seed: 5}) // exceptionally good Rx
	if err != nil {
		return nil, err
	}
	res.LoopbackEVM = golden
	res.LoopbackPass = golden <= res.E2ELimit

	// The same unit through a NOMINAL receiver (its own noise and IQ
	// error): the field link the escape will actually live on.
	field, err := loop(rf.RxConfig{
		Fc:       cfg.Fc,
		NoiseRMS: 0.04,
		IQ:       rf.FromImbalanceDB(0.5, 3, 0),
		Seed:     6,
	})
	if err != nil {
		return nil, err
	}
	res.FieldEVM = field

	// The PNBS BIST: direct Tx observation.
	rep, err := b.Run()
	if err != nil {
		return nil, err
	}
	if rep.EVM == nil {
		return nil, fmt.Errorf("experiments: PNBS EVM missing")
	}
	res.PNBSEVM = rep.EVM.RMSPercent
	res.PNBSPass = rep.Pass
	return res, nil
}

// Render prints the comparison.
func (r *LoopbackResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Loopback fault masking vs direct PNBS observation (paper Section I)")
	verdict := func(pass bool) string {
		if pass {
			return "PASS"
		}
		return "FAIL"
	}
	rows := [][]string{
		{"Tx modulation error (ground truth)", pctv(r.TxEVMTrue), fmt.Sprintf("Tx budget %.0f%%", r.TxLimit)},
		{"loopback EVM via golden Rx", pctv(r.LoopbackEVM),
			fmt.Sprintf("e2e limit %.0f%% -> %s", r.E2ELimit, verdict(r.LoopbackPass))},
		{"PNBS BIST EVM (direct Tx)", pctv(r.PNBSEVM),
			fmt.Sprintf("Tx limit %.0f%% -> %s", r.TxLimit, verdict(r.PNBSPass))},
		{"field link via nominal Rx", pctv(r.FieldEVM), "what the escape ships as"},
	}
	writeTable(w, []string{"measurement", "EVM", "verdict / note"}, rows)
	fmt.Fprintln(w, "The exceptionally good receiver masks the marginal transmitter (loopback PASS = test escape); the PNBS BIST observes the Tx directly and rejects it. In the field, a nominal receiver pushes the link toward the end-to-end limit.")
}

// pctv formats an EVM percentage value.
func pctv(v float64) string { return fmt.Sprintf("%.2f%%", v) }
