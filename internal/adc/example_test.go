package adc_test

import (
	"fmt"
	"math"

	"repro/internal/adc"
	"repro/internal/sig"
)

// The paper's converter: 10 bits with 3 ps rms aperture jitter. At a 1 GHz
// input the jitter — not the quantizer — sets the noise floor.
func ExampleADC_Sample() {
	conv, err := adc.New(adc.Config{Bits: 10, FullScale: 1.5, JitterRMS: 3e-12, Seed: 1})
	if err != nil {
		panic(err)
	}
	tone := &sig.Tone{Amp: 1, Freq: 1e9}
	times := make([]float64, 4096) // 90 MS/s subsampling
	for i := range times {
		times[i] = float64(i) * 1.111e-8
	}
	samples := conv.Sample(tone, times)
	// Error vs the ideal waveform.
	var errPow float64
	for i, tv := range times {
		d := samples[i] - tone.At(tv)
		errPow += d * d
	}
	snr := 10 * math.Log10(0.5/(errPow/float64(len(times))))
	fmt.Printf("jitter-limited SNR in the low 30s dB: %v\n", snr > 28 && snr < 40)
	// Output: jitter-limited SNR in the low 30s dB: true
}

// Static converter test: inject a bow INL, measure it back with the
// sine-histogram method.
func ExampleHistogramTest() {
	nl, _ := adc.NewBowNL(8, 2.0)
	conv, _ := adc.New(adc.Config{Bits: 8, FullScale: 1})
	n := 1 << 18
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i)
	}
	codes := conv.SampleCodes(func(t float64) float64 {
		return 1.05 * math.Sin(2*math.Pi*0.012360679774997897*t)
	}, times, nl)
	_, inl, err := adc.HistogramTest(codes, 8)
	if err != nil {
		panic(err)
	}
	worst := 0.0
	for _, v := range inl {
		if math.Abs(v) > worst {
			worst = math.Abs(v)
		}
	}
	fmt.Printf("measured peak INL within 50%% of injected 2 LSB: %v\n",
		worst > 1.0 && worst < 3.0)
	// Output: measured peak INL within 50% of injected 2 LSB: true
}
