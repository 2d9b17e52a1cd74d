package dsp

import (
	"fmt"
	"math"
)

// WindowType enumerates the supported window functions.
type WindowType int

const (
	// Rectangular is the boxcar window (no tapering).
	Rectangular WindowType = iota
	// Hann is the raised-cosine window.
	Hann
	// Hamming is the 0.54/0.46 raised-cosine window.
	Hamming
	// Blackman is the classic three-term Blackman window.
	Blackman
	// KaiserWin is the Kaiser-Bessel window; its shape parameter beta is
	// supplied separately (see Kaiser and Window).
	KaiserWin
	// Flattop is the five-term flat-top window (SR785 coefficients), used
	// for amplitude-accurate tone measurements: scalloping loss < 0.01 dB.
	Flattop
)

// String implements fmt.Stringer.
func (w WindowType) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	case KaiserWin:
		return "kaiser"
	case Flattop:
		return "flattop"
	default:
		return fmt.Sprintf("WindowType(%d)", int(w))
	}
}

// Window returns the n-point window of the given type. beta is only used by
// KaiserWin. Windows are symmetric (suitable for FIR design); for n == 1 the
// single coefficient is 1.
func Window(t WindowType, n int, beta float64) []float64 {
	switch t {
	case Rectangular:
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	case Hann:
		return cosineWindow(n, 0.5, 0.5, 0)
	case Hamming:
		return cosineWindow(n, 0.54, 0.46, 0)
	case Blackman:
		return cosineWindow(n, 0.42, 0.5, 0.08)
	case KaiserWin:
		return Kaiser(n, beta)
	case Flattop:
		return flattopWindow(n)
	default:
		panic(fmt.Sprintf("dsp: unknown window type %d", int(t)))
	}
}

// flattopWindow evaluates the five-term flat-top window.
func flattopWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	const (
		a0 = 1.0
		a1 = 1.93
		a2 = 1.29
		a3 = 0.388
		a4 = 0.028
	)
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = (a0 - a1*math.Cos(x) + a2*math.Cos(2*x) - a3*math.Cos(3*x) + a4*math.Cos(4*x)) /
			(a0 + a1 + a2 + a3 + a4)
	}
	return w
}

func cosineWindow(n int, a0, a1, a2 float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = a0 - a1*math.Cos(x) + a2*math.Cos(2*x)
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

// KaiserOrder estimates the FIR order needed for the given stop-band
// attenuation (dB) and normalised transition width (cycles/sample).
func KaiserOrder(attenDB, transWidth float64) int {
	if transWidth <= 0 {
		panic("dsp: KaiserOrder requires transWidth > 0")
	}
	n := (attenDB - 7.95) / (2.285 * 2 * math.Pi * transWidth)
	if n < 1 {
		n = 1
	}
	return int(math.Ceil(n))
}
