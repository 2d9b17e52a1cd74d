// Package repro's root benchmark suite regenerates every table and figure
// of the paper (one Benchmark per artifact — see DESIGN.md's experiment
// index) and additionally benchmarks the computational kernels the paper
// calls out: the Kohlenberg interpolation, the dual-rate cost function and
// the LMS identification ("relatively high computational effort",
// Section IV-B).
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"io"
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/modem"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/pnbs"
	"repro/internal/skew"
)

// --- paper artifacts --------------------------------------------------

func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig3a(3, 61)
		r.Render(io.Discard)
	}
}

func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3b()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig5(b *testing.B) {
	s := experiments.DefaultPaperSetup()
	s.NTimes = 120
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(s, 0, 0, 29, 0)
		if err != nil {
			b.Fatal(err)
		}
		if math.Abs(r.ArgMin-r.DTrue) > 8e-12 {
			b.Fatalf("Fig. 5 minimum off: %g vs %g", r.ArgMin, r.DTrue)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig6(b *testing.B) {
	s := experiments.DefaultPaperSetup()
	s.NTimes = 120
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6(s, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range r.Traces {
			if tr.Result.Iterations >= 25 {
				b.Fatalf("LMS did not converge fast enough from %g", tr.D0)
			}
		}
		r.Render(io.Discard)
	}
}

func BenchmarkTable1(b *testing.B) {
	s := experiments.DefaultPaperSetup()
	s.NTimes = 120
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(s, 0)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkEq4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunEq4(nil)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkDSweep(b *testing.B) {
	band := experiments.DefaultPaperSetup().BandB
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunDSweep(band, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkMaskBIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMaskBIST(0.35)
		if err != nil {
			b.Fatal(err)
		}
		if r.Escapes != 0 || r.Alarms != 0 {
			b.Fatalf("detection matrix wrong: %d escapes, %d alarms", r.Escapes, r.Alarms)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkMaskBISTTraceOff/On measure the cost of the hierarchical trace
// layer on the end-to-end mask BIST: Off is the ambient state (every span
// site reduced to one inlined atomic load), On records the full span tree
// and counter streams into the in-memory buffers. The pair is recorded in
// BENCH_trace.json by `make bench-hot`.
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

func BenchmarkMaskBISTTraceOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := trace.StartRecording(trace.Config{}); err != nil {
			b.Fatal(err)
		}
		_, err := experiments.RunMaskBIST(0.35)
		rec := trace.StopRecording()
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Spans) == 0 {
			b.Fatal("recording captured nothing")
		}
	}
}

func BenchmarkFlexibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFlex(0.35)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// --- computational kernels ---------------------------------------------

func paperKernel(b *testing.B) *pnbs.Kernel {
	b.Helper()
	k, err := pnbs.NewKernel(pnbs.Band{FLow: 955e6, B: 90e6}, 180e-12)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func BenchmarkKernelS(b *testing.B) {
	k := paperKernel(b)
	t := 3.7e-9
	var acc float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += k.S(t)
	}
	_ = acc
}

func benchRecon(b *testing.B, halfTaps int) {
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	tt := band.T()
	n := 512
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = math.Cos(2 * math.Pi * 1e9 * float64(i) * tt)
		ch1[i] = math.Cos(2 * math.Pi * 1e9 * (float64(i)*tt + d))
	}
	r, err := pnbs.NewReconstructor(band, d, 0, ch0, ch1, pnbs.Options{HalfTaps: halfTaps})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := r.ValidRange()
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += r.At(lo + math.Mod(float64(i)*1.7e-9, hi-lo))
	}
	_ = acc
}

func BenchmarkReconstructorAt61Taps(b *testing.B)  { benchRecon(b, 30) }
func BenchmarkReconstructorAt121Taps(b *testing.B) { benchRecon(b, 60) }

// BenchmarkEnvelopeGrid measures the measure stage's fused per-phase grid
// path (ns/op per grid point at 8x oversampling).
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
	r.EnvelopeGridInto(1e9, lo, fs, out) // warm the per-phase tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += np {
		r.EnvelopeGridInto(1e9, lo, fs, out)
	}
}

func BenchmarkCostEvaluation(b *testing.B) {
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
	setB := mk(bandB, 0, 300)
	setB1 := mk(bandB1, -400e-9, 180)
	times := skew.RandomTimes(500e-9, 1600e-9, 300, 1)
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

// BenchmarkCampaignGrid measures the stimulus-coverage campaign per cell
// (2 stimuli x 4 rows x 1 unit = 8 full BIST executions per op) with the
// memoized stimulus payloads and pooled capture/grid buffers warm — the
// per-unit cost a million-DUT campaign pays at steady state.
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

// BenchmarkReconstructorRetune measures the in-place candidate-delay swap
// the LMS hot loop relies on (vs the full NewReconstructor rebuild the
// seed paid per candidate).
func BenchmarkReconstructorRetune(b *testing.B) {
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	tt := band.T()
	n := 256
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = math.Cos(2 * math.Pi * 1e9 * float64(i) * tt)
		ch1[i] = math.Cos(2 * math.Pi * 1e9 * (float64(i)*tt + 180e-12))
	}
	r, err := pnbs.NewReconstructor(band, 180e-12, 0, ch0, ch1, pnbs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ds := []float64{120e-12, 180e-12, 240e-12, 300e-12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Retune(ds[i%len(ds)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostEvaluationWorkers4 drives the cost function with an
// explicit 4-worker pool (on a single-core host this measures the fan-out
// overhead; on a multi-core host, the speedup).
func BenchmarkCostEvaluationWorkers4(b *testing.B) {
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	BenchmarkCostEvaluation(b)
}

func BenchmarkFFT4096(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(math.Sin(0.1*float64(i)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dsp.FFT(x)
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

func BenchmarkWelchPSD(b *testing.B) {
	x := make([]complex128, 1<<14)
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

func BenchmarkKaiserWindow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = dsp.Kaiser(4096, 8)
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblate()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkNoiseFold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunNoiseFold(0.9e9, 1.9e9, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkYield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunYieldExperiment(6, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		if r.InSpec.Yield < 1 {
			b.Fatalf("in-spec lot lost yield: %.2f", r.InSpec.Yield)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkAveraging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAveraging([]int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkLoopbackComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunLoopback()
		if err != nil {
			b.Fatal(err)
		}
		if r.LoopbackPass == r.PNBSPass {
			b.Fatal("fault-masking contrast lost")
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFilterResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFilterResp()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkJamalInterpEstimate(b *testing.B) {
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	f0, err := skew.SineTestFrequency(band, band.B, 0.4*band.B)
	if err != nil {
		b.Fatal(err)
	}
	d := 180e-12
	tt := band.T()
	n := 512
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = math.Cos(2 * math.Pi * f0 * float64(i) * tt)
		ch1[i] = math.Cos(2 * math.Pi * f0 * (float64(i)*tt + d))
	}
	cfg := skew.SineEstimateConfig{F0: f0, B: band.B, DMax: 480e-12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := skew.EstimateJamalInterp(cfg, ch0, ch1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOFDMEnvelopeEval(b *testing.B) {
	o, err := modemNewOFDM()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += o.At(float64(i) * 1.37e-8)
	}
	_ = acc
}

func BenchmarkCPMEnvelopeEval(b *testing.B) {
	c, err := modemNewCPM()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += c.At(float64(i) * 1.37e-8)
	}
	_ = acc
}

// Helpers keeping the benchmark imports tidy.
func modemNewOFDM() (*modem.OFDMEnvelope, error) {
	return modem.NewOFDM(modem.OFDMConfig{Subcarriers: 64, Spacing: 156.25e3, Seed: 1})
}

func modemNewCPM() (*modem.CPMEnvelope, error) {
	return modem.NewCPM(modem.CPMConfig{SymbolRate: 2e6, BT: 0.3, Symbols: 128, Seed: 1})
}

func BenchmarkOFDMDemod(b *testing.B) {
	o, err := modemNewOFDM()
	if err != nil {
		b.Fatal(err)
	}
	cfg := o.DemodConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := modem.DemodOFDM(o, cfg, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
