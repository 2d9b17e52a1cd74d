package modem

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/par"
)

func TestShapedEnvelopeCyclicPeriodicity(t *testing.T) {
	ts := 100e-9
	p, _ := NewSRRC(ts, 0.5, 8)
	syms := QPSK.RandomSymbols(40, 3)
	env, _ := NewShapedEnvelope(syms, p)
	period := float64(len(syms)) * ts
	for _, tv := range []float64{0, 123e-9, 1.7e-6, 3.99e-6} {
		a := env.At(tv)
		b := env.At(tv + period)
		if cmplx.Abs(a-b) > 1e-9 {
			t.Errorf("t=%g: not periodic: %v vs %v", tv, a, b)
		}
	}
}

// TestShapedEnvelopeNonFinite: a NaN or infinite instant has no symbol to
// index; At returns NaN rather than panicking or inventing a value.
func TestShapedEnvelopeNonFinite(t *testing.T) {
	p, _ := NewSRRC(100e-9, 0.5, 8)
	env, _ := NewShapedEnvelope(QPSK.RandomSymbols(40, 3), p)
	for _, tv := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if v := env.At(tv); !cmplx.IsNaN(v) {
			t.Errorf("At(%v) = %v, want NaN", tv, v)
		}
	}
}

func TestShapedEnvelopeValidation(t *testing.T) {
	p, _ := NewSRRC(1, 0.5, 8)
	if _, err := NewShapedEnvelope(nil, p); err == nil {
		t.Error("empty symbols must fail")
	}
	if _, err := NewShapedEnvelope([]complex128{1}, nil); err == nil {
		t.Error("nil pulse must fail")
	}
	if _, err := NewShapedEnvelope(QPSK.RandomSymbols(10, 1), p); err == nil {
		t.Error("stream shorter than 2x span must fail")
	}
}

func TestSetAvgPower(t *testing.T) {
	ts := 100e-9
	p, _ := NewSRRC(ts, 0.5, 8)
	syms := QPSK.RandomSymbols(64, 7)
	env, _ := NewShapedEnvelope(syms, p)
	env.SetAvgPower(2.0, 2048)
	if got := env.AvgPower(2048); math.Abs(got-2.0) > 0.02 {
		t.Errorf("avg power %g, want 2", got)
	}
	// Degenerate: zero symbols vector cannot be scaled.
	z, _ := NewShapedEnvelope(make([]complex128, 64), p)
	z.SetAvgPower(1, 128)
	if z.Gain != 1 {
		t.Error("zero-power envelope should leave gain at 1")
	}
}

// TestSetAvgPowerWorkerInvariance: the power probes fan out over the pool
// but fold serially in index order, so the normalisation gain equals a
// one-probe-at-a-time reference bit for bit at every pool width.
func TestSetAvgPowerWorkerInvariance(t *testing.T) {
	p, _ := NewSRRC(100e-9, 0.5, 8)
	env, err := NewShapedEnvelope(QAM16.RandomSymbols(128, 5), p)
	if err != nil {
		t.Fatal(err)
	}
	const nPts = 4096
	dt := float64(len(env.Symbols)) * p.Ts / nPts
	acc := 0.0
	for i := 0; i < nPts; i++ {
		v := env.At((float64(i) + 0.5) * dt)
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	want := math.Sqrt(0.5 / (acc / nPts))
	for _, w := range []int{1, 2, 8} {
		prev := par.SetWorkers(w)
		env.SetAvgPower(0.5, nPts)
		par.SetWorkers(prev)
		if env.Gain != want {
			t.Errorf("workers=%d: gain %.17g != serial fold %.17g", w, env.Gain, want)
		}
	}
}

func TestMatchedFilterRecoversQPSK(t *testing.T) {
	ts := 100e-9
	p, _ := NewSRRC(ts, 0.5, 8)
	syms := QPSK.RandomSymbols(48, 21)
	env, _ := NewShapedEnvelope(syms, p)
	mf, err := NewMatchedFilter(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := mf.Demod(env, 8, 24) // stay away from nothing: cyclic, any range ok
	ref := syms[8:32]
	norm, err := NormalizeScaleAndPhase(got, ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EVM(norm, ref)
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSPercent > 3 {
		t.Errorf("matched-filter EVM %.2f%%, want < 3%%", res.RMSPercent)
	}
	ser, err := SymbolErrorRate(QPSK, norm, ref)
	if err != nil || ser != 0 {
		t.Errorf("SER %g, err %v", ser, err)
	}
	// (*MatchedFilter).EVM runs the same chain in one call, and its cyclic
	// reference index is safe for a negative start: k0 = 8 − 48 names the
	// same symbols one stream period earlier.
	for _, k0 := range []int{8, 8 - len(syms)} {
		r, err := mf.EVM(env, syms, k0, 24)
		if err != nil {
			t.Fatal(err)
		}
		if k0 == 8 && r != res {
			t.Errorf("mf.EVM %+v, want the spelled-out chain's %+v", r, res)
		}
		if r.RMSPercent > 3 {
			t.Errorf("k0=%d: mf.EVM %.2f%%, want < 3%%", k0, r.RMSPercent)
		}
	}
}

// recordingEnv is a constant envelope that records every instant it is
// asked for.
type recordingEnv struct{ ts []float64 }

func (e *recordingEnv) At(t float64) complex128 {
	e.ts = append(e.ts, t)
	return 1
}

// TestMatchedFilterTapGrid: Demod asks the envelope for exactly the
// instants centre + m·dt, m = −nh..nh, each computed by one
// multiplication, in order, skipping only the taps where the pulse is
// zero. The centres lie a thousand symbols out, where stepping t += dt
// would drift off that grid.
func TestMatchedFilterTapGrid(t *testing.T) {
	p, err := NewSRRC(100e-9, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	const over = 8
	mf, err := NewMatchedFilter(p, over)
	if err != nil {
		t.Fatal(err)
	}
	env := &recordingEnv{}
	const k0, nSym = 1000, 3
	mf.Demod(env, k0, nSym)
	dt := p.Ts / over
	nh := p.Span * over
	var want []float64
	for k := 0; k < nSym; k++ {
		centre := float64(k0+k) * p.Ts
		for m := -nh; m <= nh; m++ {
			if p.At(float64(m)*dt) != 0 {
				want = append(want, centre+float64(m)*dt)
			}
		}
	}
	if len(want) < nSym*(2*nh-1) {
		t.Fatalf("only %d non-zero taps for %d symbols of %d", len(want), nSym, 2*nh+1)
	}
	if len(env.ts) != len(want) {
		t.Fatalf("Demod asked for %d instants, want %d", len(env.ts), len(want))
	}
	for i, tv := range env.ts {
		if tv != want[i] {
			t.Fatalf("instant %d = %.17g, want %.17g on the tap grid", i, tv, want[i])
		}
	}
}

func TestMatchedFilterValidation(t *testing.T) {
	if _, err := NewMatchedFilter(nil, 8); err == nil {
		t.Error("nil pulse must fail")
	}
	p, _ := NewSRRC(1, 0.5, 4)
	mf, err := NewMatchedFilter(p, 0)
	if err != nil || mf.Oversample != 16 {
		t.Error("oversample default")
	}
}

func TestEVMBasics(t *testing.T) {
	ref := []complex128{1, 1i, -1, -1i}
	meas := []complex128{1.1, 1i, -1, -1i}
	res, err := EVM(meas, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RMSPercent-5) > 1e-9 {
		t.Errorf("RMS EVM %g, want 5", res.RMSPercent)
	}
	if math.Abs(res.PeakPercent-10) > 1e-9 {
		t.Errorf("peak EVM %g, want 10", res.PeakPercent)
	}
	if math.Abs(res.DB-20*math.Log10(0.05)) > 1e-9 {
		t.Errorf("EVM dB %g", res.DB)
	}
	if _, err := EVM(meas[:2], ref); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := EVM(nil, nil); err == nil {
		t.Error("empty must fail")
	}
	if _, err := EVM([]complex128{1}, []complex128{0}); err == nil {
		t.Error("zero reference must fail")
	}
	perfect, _ := EVM(ref, ref)
	if perfect.DB != -400 {
		t.Error("perfect EVM should clamp dB")
	}
}

func TestNormalizeScaleAndPhase(t *testing.T) {
	ref := QPSK.RandomSymbols(32, 9)
	g := complex(0.5, 0.5)
	meas := make([]complex128, len(ref))
	for i := range meas {
		meas[i] = g * ref[i]
	}
	norm, err := NormalizeScaleAndPhase(meas, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := range norm {
		if cmplx.Abs(norm[i]-ref[i]) > 1e-12 {
			t.Fatalf("normalisation failed at %d", i)
		}
	}
	if _, err := NormalizeScaleAndPhase(meas[:1], ref); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := NormalizeScaleAndPhase([]complex128{0}, []complex128{0}); err == nil {
		t.Error("degenerate must fail")
	}
}

func TestSymbolErrorRateValidation(t *testing.T) {
	if _, err := SymbolErrorRate(QPSK, nil, nil); err == nil {
		t.Error("empty must fail")
	}
	ser, err := SymbolErrorRate(QPSK, []complex128{1 + 1i}, []complex128{-1 - 1i})
	if err != nil || ser != 1 {
		t.Errorf("ser %g err %v", ser, err)
	}
}
