package modem_test

import (
	"fmt"
	"math/cmplx"

	"repro/internal/modem"
)

// The paper's test signal: 10 MHz QPSK symbols shaped by a square-root
// raised cosine with roll-off 0.5, as a continuous envelope.
func ExampleNewShapedEnvelope() {
	pulse, err := modem.NewSRRC(100e-9, 0.5, 8)
	if err != nil {
		panic(err)
	}
	symbols := modem.QPSK.RandomSymbols(64, 1)
	env, err := modem.NewShapedEnvelope(symbols, pulse)
	if err != nil {
		panic(err)
	}
	// The envelope is defined at ANY instant — that is what lets the
	// nonuniform sampler hit it at picosecond offsets.
	v := env.At(1.23456789e-6)
	fmt.Println("finite:", !cmplx.IsNaN(v))
	// Output: finite: true
}

// Matched-filter demodulation recovers the symbols exactly on a clean chain.
func ExampleMatchedFilter_Demod() {
	pulse, _ := modem.NewSRRC(100e-9, 0.5, 8)
	symbols := modem.QPSK.RandomSymbols(48, 2)
	env, _ := modem.NewShapedEnvelope(symbols, pulse)
	mf, err := modem.NewMatchedFilter(pulse, 16)
	if err != nil {
		panic(err)
	}
	rx := mf.Demod(env, 8, 16)
	norm, _ := modem.NormalizeScaleAndPhase(rx, symbols[8:24])
	res, _ := modem.EVM(norm, symbols[8:24])
	fmt.Println("EVM under 3%:", res.RMSPercent < 3)
	// Output: EVM under 3%: true
}

// Gray-coded constellations with unit average energy.
func ExampleByName() {
	c, err := modem.ByName("16QAM")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d points, %d bits/symbol\n", c.Name, c.Size(), c.BitsPerSymbol())
	// Output: 16QAM: 16 points, 4 bits/symbol
}
