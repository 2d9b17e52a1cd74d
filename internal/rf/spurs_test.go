package rf

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/sig"
)

func TestSpurCombValidation(t *testing.T) {
	cases := []struct {
		label   string
		spacing float64
		levels  []float64
	}{
		{"zero spacing", 0, []float64{-20}},
		{"negative spacing", -1e6, []float64{-20}},
		{"no harmonics", 1e6, nil},
		{"nan level", 1e6, []float64{math.NaN()}},
		{"positive level", 1e6, []float64{3}},
		{"zero level", 1e6, []float64{0}},
	}
	for _, c := range cases {
		if _, err := NewSpurComb(c.spacing, c.levels, 1); err == nil {
			t.Errorf("%s: expected error", c.label)
		}
	}
	if _, err := NewSpurComb(12e6, []float64{-15, -19, -24}, 33); err != nil {
		t.Errorf("catalogue parameters rejected: %v", err)
	}
}

// TestSpurCombRMS: a single spur at L dBc is a phase tone of peak
// deviation 2*10^(L/20), so its RMS is that over sqrt(2).
func TestSpurCombRMS(t *testing.T) {
	s, err := NewSpurComb(1e6, []float64{-20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Pow(10, -20.0/20) / math.Sqrt2
	// Average Phi^2 over one whole spur period.
	const n = 64
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Phi(float64(i) / (n * s.Spacing))
		sum += v * v
	}
	if got := math.Sqrt(sum / n); math.Abs(got-want) > 1e-12 {
		t.Errorf("RMS %g, want %g", got, want)
	}
}

// TestSpurCombDeterministic: same seed, same waveform; different seed,
// different phases — the fault must reproduce exactly across runs.
func TestSpurCombDeterministic(t *testing.T) {
	a, _ := NewSpurComb(1e6, []float64{-18, -25}, 42)
	b, _ := NewSpurComb(1e6, []float64{-18, -25}, 42)
	c, _ := NewSpurComb(1e6, []float64{-18, -25}, 43)
	tt := 3.7e-7
	if a.Phi(tt) != b.Phi(tt) {
		t.Error("same seed produced different phase processes")
	}
	if a.Phi(tt) == c.Phi(tt) {
		t.Error("different seeds produced identical phase processes")
	}
}

// TestSpurCombApplyEnvIsPureRotation: the comb modulates phase only — the
// envelope magnitude is untouched, which is why the images it creates are
// dBc-constant (they track the signal level at any drive).
func TestSpurCombApplyEnvIsPureRotation(t *testing.T) {
	s, err := NewSpurComb(12e6, []float64{-15, -19, -24}, 33)
	if err != nil {
		t.Fatal(err)
	}
	env := sig.EnvelopeFunc(func(t float64) complex128 {
		return complex(0.8*math.Cos(2*math.Pi*1e6*t), 0.3)
	})
	out := s.ApplyEnv(env)
	for i := 0; i < 64; i++ {
		tt := float64(i) * 7.3e-9
		in, o := env.At(tt), out.At(tt)
		if d := math.Abs(cmplx.Abs(o) - cmplx.Abs(in)); d > 1e-12 {
			t.Fatalf("t=%g: magnitude changed by %g", tt, d)
		}
		// The applied rotation must equal Phi(t).
		if in != 0 {
			got := cmplx.Phase(o * cmplx.Conj(in))
			want := math.Remainder(s.Phi(tt), 2*math.Pi)
			if math.Abs(math.Remainder(got-want, 2*math.Pi)) > 1e-9 {
				t.Fatalf("t=%g: rotation %g, want %g", tt, got, want)
			}
		}
	}
}

func TestSpurCombDescribe(t *testing.T) {
	s, _ := NewSpurComb(12e6, []float64{-15, -19}, 1)
	d := s.Describe()
	if !strings.Contains(d, "spurs") || !strings.Contains(d, "-15") {
		t.Errorf("unhelpful description %q", d)
	}
}

// TestTransmitterSpurChain: the comb slots into the transmitter after
// phase noise — the output envelope picks up exactly the comb rotation,
// and Describe advertises it.
func TestTransmitterSpurChain(t *testing.T) {
	spurs, err := NewSpurComb(12e6, []float64{-15}, 33)
	if err != nil {
		t.Fatal(err)
	}
	bb := sig.EnvelopeFunc(func(tt float64) complex128 { return complex(0.7, -0.2) })
	clean, err := NewTransmitter(TxConfig{Fc: 1e9}, bb)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := NewTransmitter(TxConfig{Fc: 1e9, Spurs: spurs}, bb)
	if err != nil {
		t.Fatal(err)
	}
	tt := 1.9e-8
	want := clean.OutputEnvelope().At(tt) * cmplx.Exp(complex(0, spurs.Phi(tt)))
	if d := cmplx.Abs(dirty.OutputEnvelope().At(tt) - want); d > 1e-12 {
		t.Errorf("spur rotation not applied in chain: err %g", d)
	}
	if !strings.Contains(dirty.Describe(), "spurs") {
		t.Errorf("Describe omits the comb: %q", dirty.Describe())
	}
}

// TestApplyPADispatch: ApplyPA routes envelope-capable PAs (the memory
// polynomial) through their full ApplyEnv model and wraps plain pointwise
// PAs — so TxConfig.PA works for both without the transmitter caring.
func TestApplyPADispatch(t *testing.T) {
	bb := sig.EnvelopeFunc(func(tt float64) complex128 {
		return complex(0.5*math.Cos(2*math.Pi*5e6*tt), 0.2)
	})
	// Plain PA: ApplyPA must equal pointwise Apply.
	lin := &LinearPA{Gain: complex(1.3, 0)}
	out := ApplyPA(lin, bb)
	for i := 0; i < 16; i++ {
		tt := float64(i) * 11e-9
		if out.At(tt) != lin.Apply(bb.At(tt)) {
			t.Fatalf("t=%g: wrapped PA differs from pointwise", tt)
		}
	}
	// Memory PA: the envelope path must show the delayed tap, i.e. differ
	// from the memoryless pointwise core.
	mem, err := NewMemoryPolyPA([][3]complex128{
		{1, complex(-0.32, 0.14), 0},
		{0, complex(0.22, -0.15), 0},
	}, 22e-9)
	if err != nil {
		t.Fatal(err)
	}
	memOut := ApplyPA(mem, bb)
	var differs bool
	for i := 0; i < 64; i++ {
		tt := float64(i) * 11e-9
		if cmplx.Abs(memOut.At(tt)-mem.Apply(bb.At(tt))) > 1e-9 {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("memory PA through ApplyPA behaved memorylessly — dispatch lost the envelope path")
	}
	// A single-tap memory polynomial IS memoryless: the two paths agree.
	mless, err := NewMemoryPolyPA([][3]complex128{{1, complex(-0.1, 0.05), 0}}, 22e-9)
	if err != nil {
		t.Fatal(err)
	}
	mlessOut := ApplyPA(mless, bb)
	for i := 0; i < 16; i++ {
		tt := float64(i) * 11e-9
		if d := cmplx.Abs(mlessOut.At(tt) - mless.Apply(bb.At(tt))); d > 1e-12 {
			t.Fatalf("t=%g: memoryless polynomial paths disagree by %g", tt, d)
		}
	}
}
