package rf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/adc"
	"repro/internal/modem"
	"repro/internal/sig"
	"repro/internal/tiadc"
)

// TestPhaseNoiseRMSMatchesTimeAverage: the analytic RMSRadians (sum of tone
// powers) must agree with a long time average of Phi^2 — the tones are
// incoherent, so cross terms average out.
func TestPhaseNoiseRMSMatchesTimeAverage(t *testing.T) {
	pn, err := NewPhaseNoise([]float64{1e4, 1e6}, []float64{-70, -90}, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := pn.RMSRadians()
	n := 200000
	dt := 1e-7 // 20 ms span: ~200 periods of the slowest tone
	var acc float64
	for i := 0; i < n; i++ {
		v := pn.Phi(float64(i) * dt)
		acc += v * v
	}
	got := math.Sqrt(acc / float64(n))
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("time-averaged RMS %g vs analytic %g", got, want)
	}
}

// TestPhaseNoiseDefaultTones: nTones < 2 must fall back to the 64-tone
// default rather than building a degenerate process.
func TestPhaseNoiseDefaultTones(t *testing.T) {
	pn, err := NewPhaseNoise([]float64{1e4, 1e6}, []float64{-70, -90}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pn.freqs) != 64 {
		t.Errorf("default tone count %d, want 64", len(pn.freqs))
	}
}

// TestPhaseNoiseApplyEnvRotation: ApplyEnv must rotate the envelope by
// exactly Phi(t) without changing its magnitude.
func TestPhaseNoiseApplyEnvRotation(t *testing.T) {
	pn, err := NewPhaseNoise([]float64{1e4, 1e5}, []float64{-40, -60}, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	env := sig.EnvelopeFunc(func(t float64) complex128 { return complex(0.7, -0.2) })
	rot := pn.ApplyEnv(env)
	for _, tv := range []float64{0, 1.3e-6, 7.7e-5} {
		phi := pn.Phi(tv)
		s, c := math.Sincos(phi)
		want := env.At(tv) * complex(c, s)
		got := rot.At(tv)
		if d := got - want; math.Hypot(real(d), imag(d)) > 1e-12 {
			t.Errorf("t=%g: rotated %v, want %v", tv, got, want)
		}
	}
}

// TestInterpMaskDBClamps: outside the specified offsets the mask clamps to
// its end values; inside it interpolates monotonically in log-f.
func TestInterpMaskDBClamps(t *testing.T) {
	offsets := []float64{1e4, 1e5, 1e6}
	levels := []float64{-60, -80, -100}
	if got := interpMaskDB(offsets, levels, 1e3); got != -60 {
		t.Errorf("below-range clamp %g, want -60", got)
	}
	if got := interpMaskDB(offsets, levels, 1e7); got != -100 {
		t.Errorf("above-range clamp %g, want -100", got)
	}
	// Log-midpoint of [1e4, 1e5] is sqrt(1e4*1e5): exactly half-way in dB.
	if got := interpMaskDB(offsets, levels, math.Sqrt(1e4*1e5)); math.Abs(got+70) > 1e-9 {
		t.Errorf("log-midpoint %g, want -70", got)
	}
	if got := interpMaskDB(offsets, levels, 1e5); got != -80 {
		t.Errorf("knot value %g, want -80", got)
	}
}

// catalogPN is the fault catalogue's heavy LO: 256 tones from 10 kHz to
// 10 MHz.
func catalogPN(t *testing.T) *PhaseNoise {
	t.Helper()
	pn, err := NewPhaseNoise([]float64{1e4, 1e5, 1e6, 1e7},
		[]float64{-48, -55, -75, -100}, 256, 17)
	if err != nil {
		t.Fatal(err)
	}
	return pn
}

// TestPhiMatchesOracle: the tabulated Phi agrees with the direct tone sum
// to 1e-13 rad over the paper capture window, at random instants and on
// both sides of cell edges. Far from t = 0 the oracle's own arguments
// 2*pi*f*t + phase round at the ulp of a large number, so there the bound
// is widened by that rounding level, summed over the tones.
func TestPhiMatchesOracle(t *testing.T) {
	pn := catalogPN(t)
	var ts []float64
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		ts = append(ts, -1e-6+31e-6*rng.Float64())
	}
	for _, g := range []float64{-100, -1, 0, 1, 7, 1234, 2999} {
		for _, edge := range []float64{(g - 0.5) * phiH, (g + 0.5) * phiH} {
			ts = append(ts, edge, math.Nextafter(edge, -1), math.Nextafter(edge, 1))
		}
	}
	for _, far := range []float64{20e-3, -20e-3} {
		ts = append(ts, far, far-phiH/2, far+phiH/2, far+0.37*phiH)
	}
	for _, tv := range ts {
		tol := 1e-13
		if math.Abs(tv) > 31e-6 {
			for k, f := range pn.freqs {
				tol += pn.amps[k] * 4 * 0x1p-52 * (math.Abs(2*math.Pi*f*tv) + pn.phases[k])
			}
		}
		if d := math.Abs(pn.Phi(tv) - pn.phiAnalytic(tv)); d > tol {
			t.Errorf("t=%g: |Phi - phiAnalytic| = %g rad > %g", tv, d, tol)
		}
	}
}

// TestPhiCacheStateInvariant: Phi's bits are a pure function of t. A cold
// table, a warm one, one whose slot another cell has evicted and the table
// of a freshly built PhaseNoise all return the same value.
func TestPhiCacheStateInvariant(t *testing.T) {
	pn := catalogPN(t)
	ts := []float64{0, 3.3e-9, -7.1e-7, 1.2345e-5, 2.44e-5}
	cold := make([]float64, len(ts))
	for i, tv := range ts {
		cold[i] = pn.Phi(tv)
	}
	fresh := catalogPN(t)
	for i, tv := range ts {
		if w := pn.Phi(tv); math.Float64bits(w) != math.Float64bits(cold[i]) {
			t.Errorf("t=%g: warm %v != cold %v", tv, w, cold[i])
		}
		// Same slot, another cell: the evicting evaluation replaces t's cell.
		alias := tv + phiSlots*phiH
		pn.Phi(alias)
		g := int64(math.Round(tv / phiH))
		if c := pn.cells[g&(phiSlots-1)].Load(); c == nil || c.g == g {
			t.Fatalf("t=%g: evaluating %g did not evict cell %d", tv, alias, g)
		}
		if e := pn.Phi(tv); math.Float64bits(e) != math.Float64bits(cold[i]) {
			t.Errorf("t=%g: evicted %v != cold %v", tv, e, cold[i])
		}
		if f := fresh.Phi(tv); math.Float64bits(f) != math.Float64bits(cold[i]) {
			t.Errorf("t=%g: fresh process %v != cold %v", tv, f, cold[i])
		}
	}
}

// TestPhiCaptureIdentity: rotating the paper test waveform by the table
// instead of the oracle flips no 10-bit ADC code in paper-size jittered
// captures at both rates, which keeps captures in the byte-exact golden
// tier.
func TestPhiCaptureIdentity(t *testing.T) {
	pn := catalogPN(t)
	qpsk, err := modem.ByName("QPSK")
	if err != nil {
		t.Fatal(err)
	}
	pulse, err := modem.NewSRRC(1/10e6, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := modem.NewShapedEnvelope(qpsk.RandomSymbols(128, 2014), pulse)
	if err != nil {
		t.Fatal(err)
	}
	bb.SetAvgPower(0.5, 4096)
	table, err := NewTransmitter(TxConfig{Fc: 1e9, PhaseNoise: pn}, bb)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewTransmitter(TxConfig{Fc: 1e9}, sig.EnvelopeFunc(func(t float64) complex128 {
		s, c := math.Sincos(pn.phiAnalytic(t))
		return bb.At(t) * complex(c, s)
	}))
	if err != nil {
		t.Fatal(err)
	}
	const b, halfTaps, n = 90e6, 30, 2200
	for _, seed := range []int64{0, 1, 2} {
		cfg := tiadc.Config{
			Ch0:            adc.Config{Bits: 10, FullScale: 1.5, Seed: 101 + seed},
			Ch1:            adc.Config{Bits: 10, FullScale: 1.5, Seed: 202 + seed},
			DCDE:           tiadc.DCDE{Max: 480e-12},
			ClockJitterRMS: 3e-12,
			Seed:           303 + seed,
		}
		capture := func(tx *Transmitter) []*tiadc.Capture {
			ti, err := tiadc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var caps []*tiadc.Capture
			for _, r := range []struct {
				period, t0 float64
				n          int
			}{
				{1 / b, 0, n},
				{2 / b, -halfTaps * 2 / b, n/2 + 2*halfTaps + 4},
			} {
				c, err := ti.Capture(tx.Output(), r.period, 180e-12, r.t0, r.n)
				if err != nil {
					t.Fatal(err)
				}
				caps = append(caps, c)
			}
			return caps
		}
		got, want := capture(table), capture(oracle)
		for i := range got {
			flips := 0
			for j := range got[i].Ch0 {
				if got[i].Ch0[j] != want[i].Ch0[j] {
					flips++
				}
				if got[i].Ch1[j] != want[i].Ch1[j] {
					flips++
				}
			}
			if flips != 0 {
				t.Errorf("seed %d, rate B/%d: %d of %d codes flipped", seed, i+1, flips, 2*len(got[i].Ch0))
			}
		}
	}
}

// TestPhiConcurrentFill: goroutines racing to fill and evict the same
// cold slots all see the serial values, bit for bit.
func TestPhiConcurrentFill(t *testing.T) {
	ts := make([]float64, 3000)
	for i := range ts {
		// Two passes over the slot ring: every slot is filled, then evicted.
		ts[i] = float64(i) * 2 * phiSlots * phiH / float64(len(ts))
	}
	want := make([]float64, len(ts))
	serial := catalogPN(t)
	for i, tv := range ts {
		want[i] = serial.Phi(tv)
	}
	pn := catalogPN(t)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ts {
				i := (j + w*len(ts)/8) % len(ts)
				if got := pn.Phi(ts[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					errs <- fmt.Sprintf("worker %d: t=%g: %v != serial %v", w, ts[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
