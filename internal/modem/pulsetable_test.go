package modem

import (
	"math"
	"sync"
	"testing"

	"repro/internal/adc"
	"repro/internal/rf"
	"repro/internal/sig"
	"repro/internal/tiadc"
)

// analyticEnvelope is the per-tap envelope the polyphase table replaced:
// every live tap evaluates SRRC.At, the oracle the table is fitted from.
func analyticEnvelope(s *ShapedEnvelope) sig.Envelope {
	return sig.EnvelopeFunc(func(t float64) complex128 {
		ts := s.Pulse.Ts
		n := len(s.Symbols)
		period := float64(n) * ts
		t = math.Mod(t, period)
		if t < 0 {
			t += period
		}
		kc := int(math.Floor(t / ts))
		var acc complex128
		for k := kc - s.Pulse.Span; k <= kc+s.Pulse.Span+1; k++ {
			acc += s.Symbols[((k%n)+n)%n] * complex(s.Pulse.At(t-float64(k)*ts), 0)
		}
		return acc * complex(s.Gain, 0)
	})
}

// pulseProbe is a one-hot stream at Ts = 1: At(span + x) reads the pulse at
// x through the production table path, for x in (-span, span).
func pulseProbe(t testing.TB, alpha float64, span int) *ShapedEnvelope {
	t.Helper()
	p, err := NewSRRC(1, alpha, span)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([]complex128, 2*span)
	syms[span] = 1
	env, err := NewShapedEnvelope(syms, p)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// tableErr is |table - SRRC.At| at x, through ShapedEnvelope.At.
func tableErr(env *ShapedEnvelope, x float64) float64 {
	span := float64(env.Pulse.Span)
	return math.Abs(real(env.At(span+x)) - env.Pulse.At(x))
}

// TestPulseTableVsAnalytic bounds the table against the analytic pulse
// over the whole span — every cell, the edge-taper cells and the
// neighbourhood of the removable singularity included — at several
// roll-offs. The bound is 1e-13 peak-normalised; the paper pulse stays
// within 4e-15.
func TestPulseTableVsAnalytic(t *testing.T) {
	for _, c := range []struct {
		alpha float64
		span  int
		bound float64
	}{
		{0.5, 8, 4e-15},
		{0.22, 8, 1e-13},
		{0.35, 6, 1e-13},
		{1, 4, 1e-13},
	} {
		env := pulseProbe(t, c.alpha, c.span)
		span := float64(c.span)
		worst, at := 0.0, 0.0
		check := func(x float64) {
			if e := tableErr(env, x); e > worst {
				worst, at = e, x
			}
		}
		// A dense grid off the cell boundaries, the boundaries themselves
		// and both sides of the singularity at x0 = 1/(4 alpha).
		const perCell = 17
		for i := 0; i < 2*c.span*tableCells*perCell; i++ {
			check(-span + (float64(i)+0.37)/(tableCells*perCell))
		}
		for j := -c.span * tableCells; j <= c.span*tableCells; j++ {
			check(float64(j) / tableCells)
		}
		x0 := 1 / (4 * c.alpha)
		for _, d := range []float64{0, 1e-12, 1e-9, 1e-6, 1e-3, 1.9e-2, 2.1e-2} {
			for _, x := range []float64{x0 + d, x0 - d, -x0 + d, -x0 - d} {
				if math.Abs(x) < span {
					check(x)
				}
			}
		}
		t.Logf("alpha %g span %d: max |table - SRRC.At| %.2g at x = %.6g", c.alpha, c.span, worst, at)
		if worst > c.bound {
			t.Errorf("alpha %g span %d: |table - SRRC.At| = %.2g at x = %.17g, bound %.0g",
				c.alpha, c.span, worst, at, c.bound)
		}
	}
}

// TestPulseTableCaptureIdentity: the table moves the analog Tx envelope by
// ~1e-15, far below a 10-bit code step, so paper-size jittered captures at
// B and B/2 keep every code of the analytic per-tap envelope over three
// unit seeds; that keeps the captures, and everything measured from them,
// in the byte-exact golden tier. A deliberately perturbed table does flip
// codes, so the comparison can see a change.
func TestPulseTableCaptureIdentity(t *testing.T) {
	pulse, err := NewSRRC(1/10e6, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewShapedEnvelope(QPSK.RandomSymbols(128, 2014), pulse)
	if err != nil {
		t.Fatal(err)
	}
	bb.SetAvgPower(0.5, 4096)
	perturbed := *pulse
	perturbed.table = append(pulseTable(nil), pulse.table...)
	for i := range perturbed.table {
		perturbed.table[i][0] += 1e-5
	}
	const b, halfTaps, n = 90e6, 30, 2200
	capture := func(env sig.Envelope, seed int64) []*tiadc.Capture {
		tx, err := rf.NewTransmitter(rf.TxConfig{Fc: 1e9}, env)
		if err != nil {
			t.Fatal(err)
		}
		ti, err := tiadc.New(tiadc.Config{
			Ch0:            adc.Config{Bits: 10, FullScale: 1.5, Seed: 101 + seed},
			Ch1:            adc.Config{Bits: 10, FullScale: 1.5, Seed: 202 + seed},
			DCDE:           tiadc.DCDE{Max: 480e-12},
			ClockJitterRMS: 3e-12,
			Seed:           303 + seed,
		})
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
	flips := func(got, want []*tiadc.Capture) (f, total int) {
		for i := range got {
			for j := range got[i].Ch0 {
				if got[i].Ch0[j] != want[i].Ch0[j] {
					f++
				}
				if got[i].Ch1[j] != want[i].Ch1[j] {
					f++
				}
			}
			total += 2 * len(got[i].Ch0)
		}
		return f, total
	}
	oracle := analyticEnvelope(bb)
	bad := &ShapedEnvelope{Symbols: bb.Symbols, Pulse: &perturbed, Gain: bb.Gain}
	for _, seed := range []int64{0, 1, 2} {
		want := capture(oracle, seed)
		if f, total := flips(capture(bb, seed), want); f != 0 {
			t.Errorf("seed %d: table flipped %d of %d codes", seed, f, total)
		}
		if f, total := flips(capture(bad, seed), want); f == 0 {
			t.Errorf("seed %d: perturbed table flipped none of %d codes", seed, total)
		}
	}
}

// TestPulseTableConcurrentBuild: goroutines racing to build the table of a
// fresh (alpha, span) all get the one stored table, equal bit for bit to a
// serial build.
func TestPulseTableConcurrentBuild(t *testing.T) {
	const alpha, span = 0.3173, 5
	var wg sync.WaitGroup
	got := make([]*SRRC, 8)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewSRRC(1e-7, alpha, span)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = p
		}()
	}
	wg.Wait()
	serial := buildTable(got[0])
	for w, p := range got {
		if p == nil {
			t.Fatalf("worker %d built nothing", w)
		}
		if &p.table[0] != &got[0].table[0] {
			t.Errorf("worker %d holds its own table, not the cached one", w)
		}
		for i := range serial {
			for k := range serial[i] {
				if math.Float64bits(p.table[i][k]) != math.Float64bits(serial[i][k]) {
					t.Fatalf("worker %d: cell %d coef %d: %v != serial %v",
						w, i, k, p.table[i][k], serial[i][k])
				}
			}
		}
	}
}

// FuzzPulseTableVsAnalytic: at any offset in the span, the table path of
// ShapedEnvelope.At stays within 1e-13 of SRRC.At for the paper pulse and
// three other roll-offs.
func FuzzPulseTableVsAnalytic(f *testing.F) {
	f.Add(uint8(0), 0.5)
	f.Add(uint8(1), -3.999)
	f.Add(uint8(2), 7.0001)
	f.Add(uint8(3), 1/(4*0.22)+1e-9)
	alphas := []float64{0.5, 1, 0.35, 0.22}
	envs := make([]*ShapedEnvelope, len(alphas))
	for i, a := range alphas {
		envs[i] = pulseProbe(f, a, 8)
	}
	f.Fuzz(func(t *testing.T, which uint8, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip()
		}
		env := envs[int(which)%len(envs)]
		x = math.Mod(x, float64(env.Pulse.Span))
		if e := tableErr(env, x); e > 1e-13 {
			t.Errorf("alpha %g, x %.17g: |table - SRRC.At| = %.2g", env.Pulse.Alpha, x, e)
		}
	})
}
