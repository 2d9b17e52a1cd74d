package modem

import (
	"math"
	"math/cmplx"
	"testing"
)

// AvgEnergy returns the mean symbol energy (should be ~1 for the built-ins).
func (c *Constellation) AvgEnergy() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range c.Points {
		s += real(p)*real(p) + imag(p)*imag(p)
	}
	return s / float64(len(c.Points))
}

// MinDistance returns the minimum Euclidean distance between any two points.
func (c *Constellation) MinDistance() float64 {
	min := math.Inf(1)
	for i := 0; i < len(c.Points); i++ {
		for j := i + 1; j < len(c.Points); j++ {
			if d := cmplx.Abs(c.Points[i] - c.Points[j]); d < min {
				min = d
			}
		}
	}
	return min
}

func TestConstellationBasics(t *testing.T) {
	cases := []struct {
		c    *Constellation
		size int
		bps  int
	}{
		{BPSK, 2, 1},
		{QPSK, 4, 2},
		{PSK8, 8, 3},
		{QAM16, 16, 4},
		{QAM64, 64, 6},
	}
	for _, tc := range cases {
		if tc.c.Size() != tc.size {
			t.Errorf("%s: size %d, want %d", tc.c.Name, tc.c.Size(), tc.size)
		}
		if tc.c.BitsPerSymbol() != tc.bps {
			t.Errorf("%s: bps %d, want %d", tc.c.Name, tc.c.BitsPerSymbol(), tc.bps)
		}
		if e := tc.c.AvgEnergy(); math.Abs(e-1) > 1e-9 {
			t.Errorf("%s: avg energy %g, want 1", tc.c.Name, e)
		}
		if d := tc.c.MinDistance(); d <= 0 {
			t.Errorf("%s: min distance %g", tc.c.Name, d)
		}
	}
}

func TestPSKGrayAdjacency(t *testing.T) {
	// Neighbouring points on the PSK circle must differ in exactly one bit.
	for _, c := range []*Constellation{QPSK, PSK8} {
		m := c.Size()
		// Recover angular order by sorting points by angle.
		type pp struct {
			idx int
			ang float64
		}
		byAngle := make([]pp, m)
		for i, p := range c.Points {
			byAngle[i] = pp{i, math.Atan2(imag(p), real(p))}
		}
		for i := 0; i < m; i++ { // insertion sort, tiny m
			for j := i; j > 0 && byAngle[j].ang < byAngle[j-1].ang; j-- {
				byAngle[j], byAngle[j-1] = byAngle[j-1], byAngle[j]
			}
		}
		for i := 0; i < m; i++ {
			a := byAngle[i].idx
			b := byAngle[(i+1)%m].idx
			diff := a ^ b
			if bitsSet(diff) != 1 {
				t.Errorf("%s: neighbours %04b and %04b differ in %d bits", c.Name, a, b, bitsSet(diff))
			}
		}
	}
}

func bitsSet(x int) int {
	n := 0
	for x != 0 {
		n += x & 1
		x >>= 1
	}
	return n
}

func TestQAM16GrayAxisAdjacency(t *testing.T) {
	// Horizontally/vertically adjacent 16QAM points must differ in one bit.
	pts := QAM16.Points
	d := QAM16.MinDistance()
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if math.Abs(cmplx.Abs(pts[i]-pts[j])-d) < 1e-9 {
				if bitsSet(i^j) != 1 {
					t.Errorf("adjacent points %04b/%04b differ in %d bits", i, j, bitsSet(i^j))
				}
			}
		}
	}
}

func TestMapAndSliceRoundTrip(t *testing.T) {
	for _, c := range []*Constellation{BPSK, QPSK, PSK8, QAM16, QAM64} {
		bps := c.BitsPerSymbol()
		bits := make([]int, bps*c.Size())
		for i := 0; i < c.Size(); i++ {
			for b := 0; b < bps; b++ {
				bits[i*bps+b] = (i >> (bps - 1 - b)) & 1
			}
		}
		syms, err := c.Map(bits)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for i, s := range syms {
			if got := c.Slice(s); got != i {
				t.Errorf("%s: symbol %d sliced to %d", c.Name, i, got)
			}
		}
	}
}

func TestMapBitCountError(t *testing.T) {
	if _, err := QPSK.Map([]int{1}); err == nil {
		t.Error("odd bit count for QPSK should fail")
	}
}

func TestRandomSymbolsDeterministicAndValid(t *testing.T) {
	a := QPSK.RandomSymbols(100, 5)
	b := QPSK.RandomSymbols(100, 5)
	c := QPSK.RandomSymbols(100, 6)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
		if QPSK.Slice(a[i]) < 0 || cmplx.Abs(a[i]) == 0 {
			t.Fatal("invalid random symbol")
		}
	}
	if !same {
		t.Error("same seed must reproduce")
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"BPSK", "QPSK", "8PSK", "16QAM", "64QAM"} {
		c, err := ByName(n)
		if err != nil || c.Name != n {
			t.Errorf("ByName(%s): %v", n, err)
		}
	}
	if _, err := ByName("GMSK"); err == nil {
		t.Error("unknown name must error")
	}
}
