package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/modem"
)

// uncachedGain recomputes the normalisation gain New would derive for c
// and the given stream, bypassing the gain cache.
func uncachedGain(t *testing.T, c Config, syms []complex128) float64 {
	t.Helper()
	pulse, err := modem.NewSRRC(1/c.SymbolRate, c.RollOff, pulseSpan)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := modem.NewShapedEnvelope(syms, pulse)
	if err != nil {
		t.Fatal(err)
	}
	bb.SetAvgPower(c.BasebandPower, 4096)
	return bb.Gain
}

// gainOf builds a BIST for c and returns its baseband gain.
func gainOf(t *testing.T, c Config) float64 {
	t.Helper()
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return b.Baseband().Gain
}

// TestGainCacheKeysStreams: the cached normalisation gain is bit-identical
// to an uncached SetAvgPower for a seed-drawn stream and for an explicit
// one, content-equal explicit streams in distinct slices share it, and a
// stream one symbol apart gets its own value.
func TestGainCacheKeysStreams(t *testing.T) {
	c := fastScenario()
	cst, err := modem.ByName(c.Constellation)
	if err != nil {
		t.Fatal(err)
	}
	seeded := uncachedGain(t, c, cst.RandomSymbols(numSymbols, c.Seed))
	for i := 0; i < 2; i++ { // the second New is a cache hit
		if g := gainOf(t, c); math.Float64bits(g) != math.Float64bits(seeded) {
			t.Fatalf("seed-drawn stream, New #%d: gain %v, uncached %v", i+1, g, seeded)
		}
	}

	// A power no other test uses keeps the first explicit New a miss.
	c.BasebandPower = 0.4321
	syms := cst.RandomSymbols(96, 7)
	want := uncachedGain(t, c, syms)
	for i, s := range [][]complex128{syms, slices.Clone(syms)} {
		c.Symbols = s
		if g := gainOf(t, c); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("explicit stream copy %d: gain %v, uncached %v", i, g, want)
		}
	}

	other := slices.Clone(syms)
	other[5] = -other[5]
	wantOther := uncachedGain(t, c, other)
	if wantOther == want {
		t.Fatal("one flipped symbol left the uncached gain unchanged; pick another stream")
	}
	c.Symbols = other
	if g := gainOf(t, c); math.Float64bits(g) != math.Float64bits(wantOther) {
		t.Errorf("stream one symbol apart: gain %v, want its own uncached %v (shared %v)", g, wantOther, want)
	}
}
