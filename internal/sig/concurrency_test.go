package sig_test

import (
	"math"
	"testing"

	"repro/internal/modem"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/sig"
)

// These tests pin the Signal/Envelope concurrency contract that the
// acquisition front end and SampleAt rely on: every envelope source and
// every Tx impairment wrapper is evaluated from eight workers at once (run
// them under -race) and must return exactly the serial values.

// probeTimes returns n instants spread over a few microseconds, offset
// from the origin so cyclic sources wrap.
func probeTimes(n int) []float64 {
	return uniformTimes(-1.3e-6, 7.3e-9, n)
}

// uniformTimes returns n instants t0, t0+dt, ..., t0+(n-1)dt.
func uniformTimes(t0, dt float64, n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = t0 + float64(i)*dt
	}
	return ts
}

// checkEnvConcurrentAt evaluates env serially, then from eight workers in
// small interleaved chunks, and requires identical values.
func checkEnvConcurrentAt(t *testing.T, name string, env sig.Envelope) {
	t.Helper()
	ts := probeTimes(1200)
	want := make([]complex128, len(ts))
	for i, tt := range ts {
		want[i] = env.At(tt)
	}
	got := make([]complex128, len(ts))
	prev := par.SetWorkers(8)
	par.ForChunks(len(ts), 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			got[i] = env.At(ts[i])
		}
	})
	par.SetWorkers(prev)
	nonzero := false
	for i := range want {
		if got[i] != want[i] && !(isNaN(got[i]) && isNaN(want[i])) {
			t.Fatalf("%s: instant %d: concurrent %v != serial %v", name, i, got[i], want[i])
		}
		nonzero = nonzero || want[i] != 0
	}
	if !nonzero {
		t.Fatalf("%s: all-zero envelope exercises nothing", name)
	}
}

func isNaN(v complex128) bool { return math.IsNaN(real(v)) || math.IsNaN(imag(v)) }

// shapedQPSK is the paper's single-carrier test envelope.
func shapedQPSK(t *testing.T) *modem.ShapedEnvelope {
	t.Helper()
	cst, err := modem.ByName("QPSK")
	if err != nil {
		t.Fatal(err)
	}
	pulse, err := modem.NewSRRC(1e-7, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	env, err := modem.NewShapedEnvelope(cst.RandomSymbols(128, 2014), pulse)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvelopeSourceConcurrentAt(t *testing.T) {
	checkEnvConcurrentAt(t, "shaped", shapedQPSK(t))
	ofdm, err := modem.NewOFDM(modem.OFDMConfig{Subcarriers: 64, Spacing: 156.25e3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkEnvConcurrentAt(t, "ofdm", ofdm)
	cpm, err := modem.NewCPM(modem.CPMConfig{SymbolRate: 10e6, BT: 0.3, Symbols: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	checkEnvConcurrentAt(t, "cpm", cpm)
	ts := probeTimes(1200)
	shaped := shapedQPSK(t)
	samples := make([]complex128, 4000)
	for i, tv := range uniformTimes(ts[0]-1e-7, 2e-9, len(samples)) {
		samples[i] = shaped.At(tv)
	}
	sampled, err := sig.NewSampledEnvelope(ts[0]-1e-7, 2e-9, samples)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvConcurrentAt(t, "sampled", sampled)
}

func TestTxWrapperConcurrentAt(t *testing.T) {
	base := shapedQPSK(t)
	pn, err := rf.NewPhaseNoise([]float64{1e4, 1e5, 1e6, 1e7},
		[]float64{-48, -55, -75, -100}, 256, 17)
	if err != nil {
		t.Fatal(err)
	}
	memPA, err := rf.NewMemoryPolyPA([][3]complex128{
		{1, complex(-0.32, 0.14), 0},
		{0, complex(0.22, -0.15), 0},
	}, 22e-9)
	if err != nil {
		t.Fatal(err)
	}
	spurs, err := rf.NewSpurComb(12e6, []float64{-15, -19, -24}, 33)
	if err != nil {
		t.Fatal(err)
	}
	iq := rf.FromImbalanceDB(2, 12, complex(0.09, 0))
	checkEnvConcurrentAt(t, "phase-noise", pn.ApplyEnv(base))
	checkEnvConcurrentAt(t, "memory-pa", memPA.ApplyEnv(base))
	checkEnvConcurrentAt(t, "spur-comb", spurs.ApplyEnv(base))
	checkEnvConcurrentAt(t, "iq", iq.ApplyEnv(base))

	// The whole chain, and its passband output through SampleAt — the
	// signal the acquisition front end evaluates concurrently.
	tx, err := rf.NewTransmitter(rf.TxConfig{Fc: 1e9, IQ: iq, PhaseNoise: pn,
		Spurs: spurs, PA: memPA}, base)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvConcurrentAt(t, "tx-chain", tx.OutputEnvelope())
	ts := probeTimes(1200)
	out := tx.Output()
	prev := par.SetWorkers(8)
	got := sig.SampleAt(out, ts)
	par.SetWorkers(prev)
	for i, tt := range ts {
		if want := out.At(tt); got[i] != want {
			t.Fatalf("tx passband: instant %d: SampleAt %g != serial %g", i, got[i], want)
		}
	}
}
