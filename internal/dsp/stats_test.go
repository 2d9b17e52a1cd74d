package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanRMSVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if Mean(x) != 2.5 {
		t.Error("Mean")
	}
	if math.Abs(RMS(x)-math.Sqrt(7.5)) > 1e-12 {
		t.Error("RMS")
	}
	if Mean(nil) != 0 || RMS(nil) != 0 {
		t.Error("empty-slice conventions")
	}
}

func TestMSEAndRelError(t *testing.T) {
	if got := RelRMSError([]float64{2}, []float64{1}); got != 1 {
		t.Errorf("RelRMSError = %g", got)
	}
	if RelRMSError([]float64{0}, []float64{0}) != 0 {
		t.Error("zero/zero should be 0")
	}
	if !math.IsInf(RelRMSError([]float64{1}, []float64{0}), 1) {
		t.Error("nonzero/zero should be +Inf")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	RelRMSError([]float64{1}, []float64{1, 2})
}

func TestMaxAbsFloat(t *testing.T) {
	if MaxAbsFloat(nil) != 0 {
		t.Error("empty")
	}
	if MaxAbsFloat([]float64{-3, 2}) != 3 {
		t.Error("value")
	}
}

func TestLinspace(t *testing.T) {
	x := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace = %v", x)
		}
	}
	if got := Linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Error("n=1 case")
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("n=0 case")
	}
	// Endpoint exactness.
	y := Linspace(0.1, 0.9, 7)
	if y[6] != 0.9 {
		t.Error("endpoint not exact")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, ok := SolveLinear(a, b)
	if !ok {
		t.Fatal("solver failed")
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, ok := SolveLinear(a, b); ok {
		t.Error("singular system should report failure")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6
		a := make([][]float64, n)
		orig := make([][]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = make([]float64, n)
			orig[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = r.NormFloat64()
				orig[i][j] = a[i][j]
			}
			a[i][i] += 5 // diagonally dominant: well conditioned
			orig[i][i] += 5
			for j := 0; j < n; j++ {
				b[i] += orig[i][j] * x[j]
			}
		}
		got, ok := SolveLinear(a, b)
		if !ok {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSineFit3RecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f0 := 1e6
	amp, phase, offset := 0.8, 1.1, 0.05
	n := 500
	ts := make([]float64, n)
	xs := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 1e-8
		xs[i] = amp*math.Cos(2*math.Pi*f0*ts[i]+phase) + offset + 1e-4*rng.NormFloat64()
	}
	a, p, c, err := SineFit3(ts, xs, f0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-amp) > 1e-3 || math.Abs(p-phase) > 1e-3 || math.Abs(c-offset) > 1e-3 {
		t.Errorf("fit = (%g, %g, %g), want (%g, %g, %g)", a, p, c, amp, phase, offset)
	}
}

func TestSineFit3Errors(t *testing.T) {
	if _, _, _, err := SineFit3([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch")
	}
	if _, _, _, err := SineFit3([]float64{1, 2}, []float64{1, 2}, 1); err == nil {
		t.Error("too few samples")
	}
}
