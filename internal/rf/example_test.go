package rf_test

import (
	"fmt"

	"repro/internal/rf"
	"repro/internal/sig"
)

// Compose the paper's homodyne transmitter with typical impairments.
func ExampleNewTransmitter() {
	pa, err := rf.NewRappPA(1, 1.0, 2)
	if err != nil {
		panic(err)
	}
	tx, err := rf.NewTransmitter(rf.TxConfig{
		Fc: 1e9,
		IQ: rf.FromImbalanceDB(0.5, 3, 0),
		PA: pa,
	}, &sig.ComplexTone{Amp: 0.3, Freq: 5e6})
	if err != nil {
		panic(err)
	}
	fmt.Println(tx.Describe())
	fmt.Printf("IRR: %.1f dB\n", rf.FromImbalanceDB(0.5, 3, 0).ImageRejectionDB())
	// Output:
	// homodyne tx @ 1e+09 Hz, IQ(g=1.059, phi=0.05236 rad, IRR=28.2 dB), PA rapp(G=1, Vsat=1, S=2)
	// IRR: 28.2 dB
}

// The P1dB compression point of a Rapp PA.
func ExampleInputP1dB() {
	pa, _ := rf.NewRappPA(10, 1, 2)
	p1 := rf.InputP1dB(pa)
	fmt.Println("compresses:", p1 > 0)
	// Output: compresses: true
}

// Two-tone intermodulation on a third-order nonlinearity.
func ExampleTwoToneTest() {
	pa, err := rf.NewMemoryPolyPA([][3]complex128{{1, complex(-0.01, 0)}}, 0)
	if err != nil {
		panic(err)
	}
	res, err := rf.TwoToneTest(rf.PAChain(pa), 1e6, 1.3e6, 0.5, 20e6, 4096)
	if err != nil {
		panic(err)
	}
	fmt.Println("IMD3 within 3 dB of 52 dBc:", res.IMD3dBc > 49 && res.IMD3dBc < 55)
	// Output: IMD3 within 3 dB of 52 dBc: true
}
