package dsp

import (
	"fmt"
	"math"
)

// WindowType enumerates the supported window functions.
type WindowType int

const (
	// Hann is the raised-cosine window.
	Hann WindowType = iota
	// KaiserWin is the Kaiser-Bessel window; its shape parameter beta is
	// supplied separately (see Kaiser and Window).
	KaiserWin
)

// Window returns the n-point window of the given type. beta is only used by
// KaiserWin. Windows are symmetric (suitable for FIR design); for n == 1 the
// single coefficient is 1.
func Window(t WindowType, n int, beta float64) []float64 {
	switch t {
	case Hann:
		return hannWindow(n)
	case KaiserWin:
		return Kaiser(n, beta)
	default:
		panic(fmt.Sprintf("dsp: unknown window type %d", int(t)))
	}
}

func hannWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = 0.5 - 0.5*math.Cos(x)
	}
	return w
}

// Kaiser returns the n-point Kaiser window with shape parameter beta:
// w[i] = I0(beta*sqrt(1-(2i/(n-1)-1)^2)) / I0(beta).
func Kaiser(n int, beta float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	den := BesselI0(beta)
	for i := range w {
		x := 2*float64(i)/float64(n-1) - 1
		w[i] = BesselI0(beta*math.Sqrt(1-x*x)) / den
	}
	return w
}

// KaiserBeta returns the Kaiser shape parameter achieving the requested
// stop-band attenuation in dB (Kaiser's empirical formula).
func KaiserBeta(attenDB float64) float64 {
	switch {
	case attenDB > 50:
		return 0.1102 * (attenDB - 8.7)
	case attenDB >= 21:
		return 0.5842*math.Pow(attenDB-21, 0.4) + 0.07886*(attenDB-21)
	default:
		return 0
	}
}
