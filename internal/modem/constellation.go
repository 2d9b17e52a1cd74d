// Package modem implements the digital modulation layer of the reproduction:
// constellations, pulse shaping (square-root raised cosine, as used by the
// paper's 10 MHz QPSK test signal), continuous-envelope symbol shaping,
// matched-filter demodulation and EVM measurement. Together with package sig
// it generates the multistandard baseband stimuli that the BIST observes.
package modem

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// Constellation is a memoryless symbol alphabet with Gray-coded bit mapping.
type Constellation struct {
	// Name identifies the scheme ("QPSK", "16QAM", ...).
	Name string
	// Points holds the unit-average-energy symbol coordinates indexed by the
	// Gray-decoded bit word.
	Points []complex128
}

// BitsPerSymbol returns log2 of the alphabet size.
func (c *Constellation) BitsPerSymbol() int {
	n := len(c.Points)
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Size returns the alphabet size.
func (c *Constellation) Size() int { return len(c.Points) }

// Map converts a bit slice to symbols; len(bits) must be a multiple of
// BitsPerSymbol. Bits are consumed MSB first per symbol.
func (c *Constellation) Map(bits []int) ([]complex128, error) {
	bps := c.BitsPerSymbol()
	if len(bits)%bps != 0 {
		return nil, fmt.Errorf("modem: %s: bit count %d not a multiple of %d", c.Name, len(bits), bps)
	}
	out := make([]complex128, 0, len(bits)/bps)
	for i := 0; i < len(bits); i += bps {
		idx := 0
		for b := 0; b < bps; b++ {
			if bits[i+b] != 0 {
				idx |= 1 << (bps - 1 - b)
			}
		}
		out = append(out, c.Points[idx])
	}
	return out, nil
}

// Slice returns the index of the nearest constellation point to z.
func (c *Constellation) Slice(z complex128) int {
	best := 0
	bd := math.Inf(1)
	for i, p := range c.Points {
		if d := cmplx.Abs(z - p); d < bd {
			bd = d
			best = i
		}
	}
	return best
}

// RandomSymbols draws n uniformly distributed symbols with a seeded RNG.
func (c *Constellation) RandomSymbols(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = c.Points[rng.Intn(len(c.Points))]
	}
	return out
}

// The built-in alphabets. All are normalised to unit average energy.
var (
	BPSK  = &Constellation{Name: "BPSK", Points: []complex128{1, -1}}
	QPSK  = newPSK("QPSK", 4, math.Pi/4)
	PSK8  = newPSK("8PSK", 8, 0)
	QAM16 = newQAM("16QAM", 4)
	QAM64 = newQAM("64QAM", 8)
)

// ByName returns the built-in constellation with the given name.
func ByName(name string) (*Constellation, error) {
	switch name {
	case "BPSK":
		return BPSK, nil
	case "QPSK":
		return QPSK, nil
	case "8PSK":
		return PSK8, nil
	case "16QAM":
		return QAM16, nil
	case "64QAM":
		return QAM64, nil
	default:
		return nil, fmt.Errorf("modem: unknown constellation %q", name)
	}
}

// newPSK builds an m-ary PSK alphabet with Gray mapping and phase offset:
// the point at angular position i carries the Gray word i XOR (i>>1), so
// adjacent phases differ in exactly one bit.
func newPSK(name string, m int, offset float64) *Constellation {
	pts := make([]complex128, m)
	for i := 0; i < m; i++ {
		g := i ^ (i >> 1)
		s, c := math.Sincos(2*math.Pi*float64(i)/float64(m) + offset)
		pts[g] = complex(c, s)
	}
	return &Constellation{Name: name, Points: pts}
}

// newQAM builds a square m x m QAM alphabet (Gray per axis), unit energy.
func newQAM(name string, side int) *Constellation {
	m := side * side
	pts := make([]complex128, m)
	bpsAxis := 0
	for s := side; s > 1; s >>= 1 {
		bpsAxis++
	}
	levels := make([]float64, side)
	for i := range levels {
		levels[i] = float64(2*i - (side - 1))
	}
	var energy float64
	for idx := 0; idx < m; idx++ {
		iBits := idx >> bpsAxis
		qBits := idx & (side - 1)
		iLvl := grayToBinary(iBits)
		qLvl := grayToBinary(qBits)
		p := complex(levels[iLvl], levels[qLvl])
		pts[idx] = p
		energy += real(p)*real(p) + imag(p)*imag(p)
	}
	scale := complex(1/math.Sqrt(energy/float64(m)), 0)
	for i := range pts {
		pts[i] *= scale
	}
	return &Constellation{Name: name, Points: pts}
}

func grayToBinary(g int) int {
	b := 0
	for g > 0 {
		b ^= g
		g >>= 1
	}
	return b
}
