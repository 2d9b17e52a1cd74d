package core

import (
	"fmt"
	"math"

	"repro/internal/pnbs"
	"repro/internal/rf"
	"repro/internal/sig"
	"repro/internal/skew"
)

// RunIRRTest performs the single-sideband tone sub-test: the transmitter is
// driven with a complex tone at +fb from the carrier, the PA output is
// captured through the BP-TIADC and reconstructed with the previously
// estimated delay, and the reconstructed envelope is searched for the
// direct tone (fc + fb), its image (fc - fb, produced by IQ imbalance) and
// the carrier residue (LO leakage). It returns the image rejection ratio in
// dB and the LO leakage in dBc.
func (b *BIST) RunIRRTest(dHat float64) (irrDB, loLeakDBc float64, err error) {
	c := b.cfg
	fb := c.SymbolRate / 2
	if fb >= c.B/2 {
		fb = c.B / 8
	}
	amp := math.Sqrt(c.BasebandPower)
	tone := &sig.ComplexTone{Amp: amp, Freq: fb}
	txCfg := c.Tx
	txCfg.Fc = c.Fc
	tx, err := rf.NewTransmitter(txCfg, tone)
	if err != nil {
		return 0, 0, fmt.Errorf("core: IRR test transmitter: %w", err)
	}
	gridN := 1024
	capLen := gridN + 2*halfTaps + 16
	cap0, err := finiteCapture(b.ti.Capture(tx.Output(), 1/c.B, c.NominalD, c.CaptureStart, capLen))
	if err != nil {
		return 0, 0, fmt.Errorf("core: IRR capture at rate B: %w", err)
	}
	set := skew.SampleSet{Band: b.band, T0: cap0.T0, Ch0: cap0.Ch0, Ch1: cap0.Ch1}
	rec, err := pnbs.NewReconstructor(set.Band, dHat, set.T0, set.Ch0, set.Ch1, b.opt())
	if err != nil {
		return 0, 0, err
	}
	env, fsEnv, _, err := b.envelopeGrid(rec, gridN)
	if err != nil {
		return 0, 0, err
	}
	direct := windowedPhasorMag(env, fb/fsEnv)
	image := windowedPhasorMag(env, -fb/fsEnv)
	dc := windowedPhasorMag(env, 0)
	if direct <= 0 {
		return 0, 0, fmt.Errorf("core: IRR test: no direct tone found")
	}
	// Floor the image/leak magnitudes at a tiny fraction of the direct tone
	// so perfect modulators report a large-but-finite figure.
	floor := direct * 1e-8
	if image < floor {
		image = floor
	}
	if dc < floor {
		dc = floor
	}
	return 20 * math.Log10(direct/image), 20 * math.Log10(dc/direct), nil
}

// windowedPhasorMag measures |X(nu)| of a complex sequence with a Hann
// window, normalised so a unit complex tone at nu yields 1.
func windowedPhasorMag(x []complex128, nu float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	var acc complex128
	var gain float64
	for i, v := range x {
		w := 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		phi := -2 * math.Pi * nu * float64(i)
		s, c := math.Sincos(phi)
		acc += v * complex(w*c, w*s)
		gain += w
	}
	return math.Hypot(real(acc), imag(acc)) / gain
}
