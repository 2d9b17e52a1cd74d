package skew_test

import (
	"fmt"
	"math"

	"repro/internal/obs/trace"
	"repro/internal/pnbs"
	"repro/internal/skew"
)

// Blind delay identification: the LMS needs only two captures of the SAME
// unknown waveform at rates B and B/2 — no known test signal.
func ExampleEstimateLMS() {
	bandB := pnbs.Band{FLow: 955e6, B: 90e6}
	bandB1 := skew.HalfRateBand(bandB)
	dTrue := 180e-12

	// An arbitrary in-band waveform the estimator knows nothing about.
	f := func(t float64) float64 {
		return math.Cos(2*math.Pi*0.99e9*t) + 0.5*math.Cos(2*math.Pi*1.01e9*t+1)
	}
	capture := func(band pnbs.Band, t0 float64, n int) skew.SampleSet {
		tt := band.T()
		ch0 := make([]float64, n)
		ch1 := make([]float64, n)
		for i := 0; i < n; i++ {
			ch0[i] = f(t0 + float64(i)*tt)
			ch1[i] = f(t0 + float64(i)*tt + dTrue)
		}
		return skew.SampleSet{Band: band, T0: t0, Ch0: ch0, Ch1: ch1}
	}
	setB := capture(bandB, 0, 250)
	setB1 := capture(bandB1, -400e-9, 160)

	lo, hi, err := skew.EvalWindow(setB, setB1, pnbs.Options{})
	if err != nil {
		panic(err)
	}
	times := skew.RandomTimes(lo+50e-9, hi-50e-9, 200, 1)
	ce, err := skew.NewCostEvaluator(setB, setB1, times, pnbs.Options{})
	if err != nil {
		panic(err)
	}
	res, err := skew.EstimateLMS(trace.Root, ce.Cost, 50e-12, ce.M())
	if err != nil {
		panic(err)
	}
	fmt.Printf("error below 0.5 ps: %v, converged in under 20 iterations: %v\n",
		math.Abs(res.DHat-dTrue) < 0.5e-12, res.Iterations < 20)
	// Output: error below 0.5 ps: true, converged in under 20 iterations: true
}

// The Section IV-A conditions that guarantee a single cost minimum.
func ExampleCheckUniqueness() {
	bandB := pnbs.Band{FLow: 955e6, B: 90e6}
	bandB1 := skew.HalfRateBand(bandB)
	fmt.Println("paper configuration feasible:", skew.CheckUniqueness(bandB, bandB1) == nil)
	fmt.Printf("search interval m = %.0f ps\n", skew.MUpper(bandB, bandB1)*1e12)
	// Output:
	// paper configuration feasible: true
	// search interval m = 483 ps
}
