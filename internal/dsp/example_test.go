package dsp_test

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// Round-trip a record through the FFT.
func ExampleFFT() {
	x := make([]complex128, 8)
	x[1] = 1 // a unit impulse at n = 1
	spec := dsp.FFT(x)
	back := dsp.IFFT(spec)
	fmt.Printf("|X[k]| flat: %v, round trip exact: %v\n",
		math.Abs(real(spec[0]*complex(real(spec[0]), -imag(spec[0])))-1) < 1e-12,
		math.Abs(real(back[1])-1) < 1e-12)
	// Output: |X[k]| flat: true, round trip exact: true
}

// Welch PSD of a complex tone in noise.
func ExampleWelchComplex() {
	fs := 1e6
	x := make([]complex128, 1<<13)
	for i := range x {
		s, c := math.Sincos(2 * math.Pi * 125e3 * float64(i) / fs)
		x[i] = complex(c, s)
	}
	spec, err := dsp.WelchComplex(x, fs, 0, dsp.DefaultWelch(1024))
	if err != nil {
		panic(err)
	}
	_, fpk := spec.PeakBin()
	fmt.Printf("peak at %.0f kHz\n", fpk/1e3)
	// Output: peak at 125 kHz
}
