// Freqhop: a tactical frequency-hopping waveform through the nonuniform
// capture. The transmitter hops a GMSK-like tone among four in-band
// channels; the BP-TIADC captures the PA output at 2 x 90 MS/s, the
// Kohlenberg reconstruction recovers the waveform, and an STFT spectrogram
// of the reconstructed envelope recovers the hop sequence — a measurement a
// fixed-rate PBS front end could not make without re-planning its clock for
// every dwell.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/dsp"
	"repro/internal/pnbs"
	"repro/internal/rf"
	"repro/internal/sig"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	fc := 1e9
	band := pnbs.Band{FLow: 955e6, B: 90e6}
	dwell := 2e-6 // 2 us per hop
	hops := []float64{-30e6, 10e6, -10e6, 30e6}

	// A hopping complex envelope: constant-amplitude tone whose frequency
	// switches every dwell with continuous phase.
	hopEnv := sig.EnvelopeFunc(func(t float64) complex128 {
		if t < 0 {
			return 0
		}
		k := int(t / dwell)
		// Accumulated phase of completed dwells keeps the trajectory
		// continuous across hops.
		phase := 0.0
		for j := 0; j < k; j++ {
			phase += 2 * math.Pi * hops[j%len(hops)] * dwell
		}
		phase += 2 * math.Pi * hops[k%len(hops)] * (t - float64(k)*dwell)
		s, c := math.Sincos(phase)
		return complex(0.6*c, 0.6*s)
	})

	tx, err := rf.NewTransmitter(rf.TxConfig{Fc: fc}, hopEnv)
	if err != nil {
		return err
	}

	// Nonuniform capture: two 90 MS/s channels, D = 180 ps.
	d := 180e-12
	tt := band.T()
	n := 1100
	out := tx.Output()
	ch0 := make([]float64, n)
	ch1 := make([]float64, n)
	for i := 0; i < n; i++ {
		ch0[i] = out.At(float64(i) * tt)
		ch1[i] = out.At(float64(i)*tt + d)
	}
	rec, err := pnbs.NewReconstructor(band, d, 0, ch0, ch1, pnbs.Options{})
	if err != nil {
		return err
	}

	// Reconstructed complex envelope at rate B across the valid range:
	// EnvelopeInto mixes at the oversampling the carrier needs (4x here),
	// lowpasses away the 2fc image and decimates back to B.
	lo, hi := rec.ValidRange()
	fs := band.B
	env := make([]complex128, int((hi-lo)*fs))
	if err := rec.EnvelopeInto(fc, lo, fs, env); err != nil {
		return err
	}
	// Spectrogram and hop track.
	sg, err := dsp.STFT(env, fs, 128, 32)
	if err != nil {
		return err
	}
	track := sg.PeakTrack()

	fmt.Fprintln(w, "reconstructed hop sequence (time -> offset from carrier):")
	lastHop := math.Inf(1)
	for i, tv := range sg.Times {
		f := track[i]
		if math.Abs(f-lastHop) > 5e6 {
			fmt.Fprintf(w, "  t = %6.2f us: %+6.1f MHz\n", (lo+tv)*1e6, f/1e6)
			lastHop = f
		}
	}
	fmt.Fprintln(w, "\nprogrammed dwell plan:")
	for k, h := range hops {
		fmt.Fprintf(w, "  t = %6.2f us: %+6.1f MHz\n", float64(k)*dwell*1e6, h/1e6)
	}
	fmt.Fprintln(w, "\nThe BIST recovered the hop plan from 2 x 90 MS/s captures of a 1 GHz signal.")
	return nil
}
