// Package repro's root benchmark suite is the slim set of Go benchmarks
// behind the CI smoke and the allocs/op contracts: the end-to-end mask
// BIST and campaign grid, plus the kernels perfbench's kernel tier mirrors
// (the LMS cost evaluation of Section IV-B's "relatively high
// computational effort", the measure stage's envelope grid, the plan FFT
// and Welch), the measure stage's decimation and the Tx envelope probe
// every stage's signal comes from. Wall-clock numbers come from perfbench
// (python3 perfbench/run.py); work counts are gated by the metrics
// goldens.
//
// Run with:
//
//	go test -run='^$' -bench=. -benchmem .
package repro

import (
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/modem"
	"repro/internal/obs/trace"
	"repro/internal/pnbs"
	"repro/internal/skew"
)

// BenchmarkMaskBISTTraceOff runs the end-to-end mask BIST with tracing in
// its ambient off state (every span site reduced to one inlined atomic
// load). The recording cost itself is perfbench's trace.overhead_pct.
func BenchmarkMaskBISTTraceOff(b *testing.B) {
	if trace.Enabled() {
		b.Fatal("a trace recording is active")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMaskBIST(0.35); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeGrid measures the measure stage's fused per-phase grid
// path (ns/op per grid point at 8x oversampling, table build included).
func BenchmarkEnvelopeGrid(b *testing.B) {
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	tt := band.T()
	n := 4096
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = math.Cos(2 * math.Pi * 1e9 * float64(i) * tt)
		ch1[i] = math.Cos(2 * math.Pi * 1e9 * (float64(i)*tt + d))
	}
	r, err := pnbs.NewReconstructor(band, d, 0, ch0, ch1, pnbs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lo, _ := r.ValidRange()
	const np = 2048
	out := make([]complex128, np)
	fs := band.B * 8
	// Every call builds its own per-phase tables (the reconstructor holds
	// no cache), so ns/op includes one table build per 2048-point grid.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += np {
		r.EnvelopeGridInto(1e9, lo, fs, out)
	}
}

// BenchmarkDecimate measures the measure stage's anti-image decimation at
// the paper mask grid: 8192 oversampled envelope points to 2048 with
// DecimationLowpass(4), each kept output one 91-tap sum.
func BenchmarkDecimate(b *testing.B) {
	lp, err := dsp.DecimationLowpass(4)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 8192)
	for i := range x {
		x[i] = complex(math.Cos(0.03*float64(i)), math.Sin(0.017*float64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(lp.Decimate(x, 4)) != 2048 {
			b.Fatal("wrong decimated length")
		}
	}
}

// BenchmarkShapedEnvelope measures one probe of the paper's Fig. 1 test
// envelope (QPSK, SRRC alpha = 0.5, span 8, 10 MHz; ns/op per probe): the
// call behind gain normalisation, acquisition, referencePSD and the
// fidelity check. Probe instants step by an irrational fraction of a
// symbol, so every polyphase cell is visited, and stay within the ~1.7
// stream periods a paper capture spans.
func BenchmarkShapedEnvelope(b *testing.B) {
	pulse, err := modem.NewSRRC(1/10e6, 0.5, 8)
	if err != nil {
		b.Fatal(err)
	}
	env, err := modem.NewShapedEnvelope(modem.QPSK.RandomSymbols(128, 2014), pulse)
	if err != nil {
		b.Fatal(err)
	}
	dt := (math.Sqrt2 - 1) * pulse.Ts / 16
	var acc complex128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += env.At(float64(i%8192) * dt)
	}
	if acc == 0 {
		b.Fatal("all-zero envelope")
	}
}

// costSets is the paper-size dual-rate capture pair and LMS instants that
// the cost benchmarks share.
func costSets() (setB, setB1 skew.SampleSet, times []float64) {
	bandB := pnbs.Band{FLow: 955e6, B: 90e6}
	bandB1 := skew.HalfRateBand(bandB)
	d := 180e-12
	mk := func(band pnbs.Band, t0 float64, n int) skew.SampleSet {
		tt := band.T()
		ch0 := make([]float64, n)
		ch1 := make([]float64, n)
		for i := 0; i < n; i++ {
			ch0[i] = math.Cos(2 * math.Pi * 1.003e9 * (t0 + float64(i)*tt))
			ch1[i] = math.Cos(2 * math.Pi * 1.003e9 * (t0 + float64(i)*tt + d))
		}
		return skew.SampleSet{Band: band, T0: t0, Ch0: ch0, Ch1: ch1}
	}
	return mk(bandB, 0, 300), mk(bandB1, -400e-9, 180), skew.RandomTimes(500e-9, 1600e-9, 300, 1)
}

func BenchmarkCostEvaluation(b *testing.B) {
	setB, setB1, times := costSets()
	ce, err := skew.NewCostEvaluator(setB, setB1, times, pnbs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ce.Cost(180e-12 + float64(i%7)*1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostTable times the per-capture prep of the fused cost: the
// prompt-channel tables of the rate-B capture over the 300 LMS instants.
func BenchmarkCostTable(b *testing.B) {
	setB, _, times := costSets()
	r, err := pnbs.NewReconstructor(setB.Band, setB.Band.OptimalD(), setB.T0, setB.Ch0, setB.Ch1, pnbs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CostTable(times)
	}
}

func BenchmarkCampaignGrid(b *testing.B) {
	g := campaign.Grid{
		Stimuli: []campaign.StimulusSpec{
			{Name: "qpsk-hot", Constellation: "QPSK", PRBSOrder: 15, PRBSSeed: 0x2A5B,
				BurstLen: 128, BackoffDB: -3, Mask: "wideband-qpsk-15M"},
			{Name: "qam16-cold", Constellation: "16QAM", PRBSOrder: 23, PRBSSeed: 0x7FFF1,
				BurstLen: 128, BackoffDB: 6, Mask: "wideband-qpsk-15M"},
		},
		Faults:         []string{"pa-compression", "lo-spur-comb", "dcde-stuck"},
		Units:          1,
		Seed:           1701,
		Scale:          0.1,
		YieldThreshold: 0.5,
	}
	if _, err := g.Run(); err != nil { // warm memo + pools outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Cells) != 8 {
			b.Fatalf("unexpected matrix shape: %d cells", len(m.Cells))
		}
	}
}

// benchFFTPlan measures steady-state Execute on a cached plan: the
// transform itself, with twiddle/permutation construction amortized away.
func benchFFTPlan(b *testing.B, n int) {
	p := dsp.PlanFFT(n)
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(math.Sin(0.1*float64(i)), math.Cos(0.17*float64(i)))
	}
	buf := make([]complex128, n)
	p.ExecuteInto(buf, src) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ExecuteInto(buf, src)
	}
}

func BenchmarkFFTPlan1024(b *testing.B)    { benchFFTPlan(b, 1024) }
func BenchmarkFFTPlan4096(b *testing.B)    { benchFFTPlan(b, 4096) }
func BenchmarkFFTPlanOdd1000(b *testing.B) { benchFFTPlan(b, 1000) }

func BenchmarkWelch64k(b *testing.B) {
	x := make([]complex128, 1<<16)
	for i := range x {
		x[i] = complex(math.Sin(0.01*float64(i)), math.Cos(0.013*float64(i)))
	}
	cfg := dsp.DefaultWelch(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.WelchComplex(x, 1e6, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
