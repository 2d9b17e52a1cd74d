// Command txsim inspects the homodyne transmitter behavioural model: it
// generates the configured waveform, applies the impairment chain and dumps
// the RF-referred power spectral density (and optionally the EVM measured
// by an ideal matched-filter receiver) as CSV on stdout.
//
// Example:
//
//	txsim -mod QPSK -rate 10e6 -fc 1e9 -iqgain 1 -iqphase 5 -pa rapp -vsat 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/sig"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "txsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out, diag io.Writer) error {
	fs2 := flag.NewFlagSet("txsim", flag.ContinueOnError)
	mod := fs2.String("mod", "QPSK", "constellation: BPSK, QPSK, 8PSK, 16QAM, 64QAM")
	rate := fs2.Float64("rate", 10e6, "symbol rate [Hz]")
	alpha := fs2.Float64("alpha", 0.5, "SRRC roll-off")
	fc := fs2.Float64("fc", 1e9, "carrier frequency [Hz]")
	nsym := fs2.Int("symbols", 256, "symbol stream length (cyclic)")
	seed := fs2.Int64("seed", 1, "symbol seed")
	power := fs2.Float64("power", 0.5, "mean baseband power |env|^2")
	iqGainDB := fs2.Float64("iqgain", 0, "IQ gain imbalance [dB]")
	iqPhaseDeg := fs2.Float64("iqphase", 0, "IQ phase error [deg]")
	loLeak := fs2.Float64("loleak", 0, "LO leakage amplitude (baseband volts)")
	paModel := fs2.String("pa", "none", "PA model: none, rapp, saleh")
	vsat := fs2.Float64("vsat", 1.0, "Rapp saturation amplitude")
	evm := fs2.Bool("evm", false, "also measure EVM with an ideal receiver")
	npsd := fs2.Int("npsd", 8192, "PSD sample count")
	seg := fs2.Int("seg", 1024, "Welch segment length (frequency resolution vs variance)")
	if err := fs2.Parse(args); err != nil {
		return err
	}

	cst, err := modem.ByName(*mod)
	if err != nil {
		return err
	}
	pulse, err := modem.NewSRRC(1 / *rate, *alpha, 8)
	if err != nil {
		return err
	}
	syms := cst.RandomSymbols(*nsym, *seed)
	bb, err := modem.NewShapedEnvelope(syms, pulse)
	if err != nil {
		return err
	}
	bb.SetAvgPower(*power, 4096)

	cfg := rf.TxConfig{Fc: *fc}
	if *iqGainDB != 0 || *iqPhaseDeg != 0 || *loLeak != 0 {
		cfg.IQ = rf.FromImbalanceDB(*iqGainDB, *iqPhaseDeg, complex(*loLeak, 0))
	}
	switch *paModel {
	case "none":
	case "rapp":
		pa, err := rf.NewRappPA(1, *vsat, 2)
		if err != nil {
			return err
		}
		cfg.PA = pa
	case "saleh":
		cfg.PA = rf.NewSalehPA(0, 0, 0, 0)
	default:
		return fmt.Errorf("unknown PA model %q", *paModel)
	}
	tx, err := rf.NewTransmitter(cfg, bb)
	if err != nil {
		return err
	}
	fmt.Fprintln(diag, tx.Describe())

	// PSD of the output envelope at 4x the occupied bandwidth. The envelope
	// evaluations are independent per instant, so they fan out over the
	// worker pool (the impairment chain is the per-sample hot path here).
	fs := 4 * (*rate) * (1 + *alpha)
	xs := make([]complex128, *npsd)
	env := tx.OutputEnvelope()
	sampleEnvelope(env, fs, xs)
	spec, err := dsp.WelchComplex(xs, fs, *fc, dsp.DefaultWelch(*seg))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "freq_hz,psd_db")
	db := spec.PSDdB()
	for i, f := range spec.Freqs {
		fmt.Fprintf(out, "%.0f,%.2f\n", f, db[i])
	}

	if *evm {
		mf, err := modem.NewMatchedFilter(pulse, 16)
		if err != nil {
			return err
		}
		res, err := mf.EVM(env, syms, 4, 64)
		if err != nil {
			return err
		}
		fmt.Fprintf(diag, "EVM: %.2f%% rms (%.2f dB), %.2f%% peak\n",
			res.RMSPercent, res.DB, res.PeakPercent)
	}
	return nil
}

// sampleChunk is sampleEnvelope's fan-out grain: an envelope instant costs
// well under a microsecond, less than a per-item pool claim.
const sampleChunk = 64

// sampleEnvelope evaluates the envelope on the uniform grid i/fs into the
// caller's buffer — the same write-into idiom as pnbs.EnvelopeGridInto, so
// repeated invocations (sweep scripts calling run() in a loop) can reuse
// one buffer and the fan-out itself never allocates. The instants fan out
// in fixed chunks of sampleChunk.
func sampleEnvelope(env sig.Envelope, fs float64, out []complex128) {
	par.ForChunks(len(out), sampleChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = env.At(float64(i) / fs)
		}
	})
}
