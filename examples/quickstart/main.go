// Quickstart: reconstruct a 1 GHz bandpass QPSK burst from two 90 MS/s
// sample sets using second-order periodically nonuniform sampling
// (Kohlenberg interpolation) — the core mechanism of the paper, with no
// impairments in the way.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/modem"
	"repro/internal/pnbs"
	"repro/internal/sig"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Build the paper's test signal: 10 MHz QPSK symbols, SRRC with
	//    roll-off 0.5, carrier 1 GHz.
	pulse, err := modem.NewSRRC(100e-9, 0.5, 8)
	if err != nil {
		return err
	}
	symbols := modem.QPSK.RandomSymbols(64, 42)
	baseband, err := modem.NewShapedEnvelope(symbols, pulse)
	if err != nil {
		return err
	}
	rf := &sig.Passband{Env: baseband, Fc: 1e9}

	// 2. Describe the capture band: fc = 1 GHz, B = 90 MHz.
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	fmt.Fprintf(w, "band: fl = %.0f MHz, B = %.0f MHz, k = %d, optimal D = %.0f ps\n",
		band.FLow/1e6, band.B/1e6, band.K(), band.OptimalD()*1e12)

	// 3. Sample nonuniformly: two uniform sets f(nT) and f(nT + D), each at
	//    only 90 MS/s for a 1 GHz signal (a 2 GS/s Nyquist problem!).
	d := 180e-12
	tt := band.T()
	n := 400
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = rf.At(float64(i) * tt)
		ch1[i] = rf.At(float64(i)*tt + d)
	}

	// 4. Reconstruct with the 61-tap Kaiser-windowed Kohlenberg filter and
	//    check the waveform at instants the sampler never touched.
	rec, err := pnbs.NewReconstructor(band, d, 0, ch0, ch1, pnbs.Options{})
	if err != nil {
		return err
	}
	lo, hi := rec.ValidRange()
	fmt.Fprintf(w, "reconstruction valid over [%.0f, %.0f] ns\n", lo*1e9, hi*1e9)

	worst := 0.0
	for i := 0; i < 200; i++ {
		tv := lo + (hi-lo)*float64(i)/199
		if e := math.Abs(rec.At(tv) - rf.At(tv)); e > worst {
			worst = e
		}
	}
	fmt.Fprintf(w, "worst-case reconstruction error: %.2e (carrier cycles were never sampled uniformly)\n", worst)

	// 5. Show what the delay estimate accuracy must be (paper Eq. 4).
	for _, pct := range []float64{0.01, 0.001} {
		fmt.Fprintf(w, "delay accuracy for %.1f%% spectral error: %.2f ps\n",
			100*pct, pnbs.DeltaDFor(band, pct)*1e12)
	}
	return nil
}
