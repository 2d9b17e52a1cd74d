package mask

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dsp"
)

// flatChannelSpectrum builds a synthetic PSD: flat channel of the given
// width around fc, with skirts decaying at slopeDBperHz outside.
func flatChannelSpectrum(fc, chanBW, span, binW float64, skirtDBc func(off float64) float64) *dsp.Spectrum {
	n := int(span / binW)
	fr := make([]float64, n)
	ps := make([]float64, n)
	for i := 0; i < n; i++ {
		f := fc - span/2 + float64(i)*binW
		fr[i] = f
		off := math.Abs(f - fc)
		if off <= chanBW/2 {
			ps[i] = 1
		} else {
			ps[i] = dsp.FromPowerDB(skirtDBc(off - chanBW/2))
		}
	}
	return &dsp.Spectrum{Freqs: fr, PSD: ps, BinWidth: binW}
}

func TestMaskValidate(t *testing.T) {
	m := WidebandQPSK15M()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Mask{Name: "x", ChannelBW: 1e6, RefBW: 1e3,
		Points: []Point{{OffsetHz: 1e5, LimitDBc: -30}}}
	if err := bad.Validate(); err == nil {
		t.Error("breakpoint inside channel must fail")
	}
	bad2 := &Mask{Name: "x", ChannelBW: 0, RefBW: 1e3, Points: []Point{{1e6, -30}}}
	if err := bad2.Validate(); err == nil {
		t.Error("zero channel bw must fail")
	}
	bad3 := &Mask{Name: "x", ChannelBW: 1e6, RefBW: 1e3}
	if err := bad3.Validate(); err == nil {
		t.Error("no points must fail")
	}
	bad4 := &Mask{Name: "x", ChannelBW: 1e6, RefBW: 1e3,
		Points: []Point{{2e6, -30}, {1e6, -40}}}
	if err := bad4.Validate(); err == nil {
		t.Error("unsorted points must fail")
	}
}

func TestLimitAtInterpolation(t *testing.T) {
	m := &Mask{Name: "t", ChannelBW: 1e6, RefBW: 1e4,
		Points: []Point{{1e6, -20}, {2e6, -40}, {4e6, -40}}}
	if v := limitAt(m, 0.5e6); v != -20 {
		t.Errorf("before first point: %g", v)
	}
	if v := limitAt(m, 1.5e6); math.Abs(v-(-30)) > 1e-12 {
		t.Errorf("midpoint: %g, want -30", v)
	}
	if v := limitAt(m, 3e6); v != -40 {
		t.Errorf("flat segment: %g", v)
	}
	if v := limitAt(m, 9e6); v != -40 {
		t.Errorf("beyond last point: %g", v)
	}
	if v := limitAt(m, -1.5e6); math.Abs(v-(-30)) > 1e-12 {
		t.Error("negative offsets must use |offset|")
	}
	if m.MaxOffset() != 4e6 {
		t.Error("MaxOffset")
	}
}

func TestCheckPassesCleanSpectrum(t *testing.T) {
	m := WidebandQPSK15M()
	fc := 1e9
	// Skirts falling 4 dB/MHz: well below the mask everywhere.
	spec := flatChannelSpectrum(fc, m.ChannelBW, 120e6, 25e3, func(off float64) float64 {
		return -30 - off/1e6*4
	})
	rep, err := Check(m, spec, fc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("clean spectrum failed: worst %g dB at %g", rep.WorstMarginDB, rep.WorstOffsetHz)
	}
	if rep.WorstMarginDB <= 0 || len(rep.Violations) != 0 {
		t.Error("margins inconsistent with pass")
	}
	if len(rep.Offsets) == 0 || len(rep.Offsets) != len(rep.LevelsDBc) ||
		len(rep.Offsets) != len(rep.LimitsDBc) {
		t.Error("trace arrays")
	}
}

func TestCheckFailsRegrownSpectrum(t *testing.T) {
	m := WidebandQPSK15M()
	fc := 1e9
	// Shoulders at -18 dBc out to 12 MHz: violates the -23 dBc first
	// segment.
	spec := flatChannelSpectrum(fc, m.ChannelBW, 120e6, 25e3, func(off float64) float64 {
		if off < 12e6 {
			return -18
		}
		return -60
	})
	rep, err := Check(m, spec, fc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("regrown spectrum passed")
	}
	if len(rep.Violations) == 0 || rep.WorstMarginDB >= 0 {
		t.Error("violations not reported")
	}
	v := rep.Violations[0]
	if v.LimitDBc-v.LevelDBc >= 0 {
		t.Error("violation margin sign")
	}
}

func TestCheckErrorPaths(t *testing.T) {
	m := WidebandQPSK15M()
	if _, err := Check(m, nil, 1e9); err == nil {
		t.Error("nil spectrum must fail")
	}
	tiny := &dsp.Spectrum{Freqs: []float64{1e9}, PSD: []float64{1}, BinWidth: 1}
	if _, err := Check(m, tiny, 2e9); err == nil {
		t.Error("non-covering spectrum must fail")
	}
	zero := flatChannelSpectrum(1e9, m.ChannelBW, 120e6, 25e3, func(float64) float64 { return -60 })
	for i := range zero.PSD {
		zero.PSD[i] = 0
	}
	if _, err := Check(m, zero, 1e9); err == nil {
		t.Error("zero channel power must fail")
	}
	badMask := &Mask{Name: "bad"}
	if _, err := Check(badMask, zero, 1e9); err == nil {
		t.Error("invalid mask must fail")
	}
}

func TestACPR(t *testing.T) {
	fc := 1e9
	spec := flatChannelSpectrum(fc, 15e6, 120e6, 25e3, func(off float64) float64 {
		return -30
	})
	v, err := ACPR(spec, fc, 15e6, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent channel is entirely skirt at -30 dBc/bin; ratio ~ -30 dB.
	if math.Abs(v-(-30)) > 1.5 {
		t.Errorf("ACPR %g, want ~-30", v)
	}
	if _, err := ACPR(nil, fc, 15e6, 20e6); err == nil {
		t.Error("nil spectrum must fail")
	}
	if _, err := ACPR(spec, fc, 0, 20e6); err == nil {
		t.Error("zero bw must fail")
	}
}

func TestBuiltinMasksValidAndLookup(t *testing.T) {
	for _, name := range Names() {
		m, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%s)", name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !strings.Contains(m.Name, "-") {
			t.Errorf("%s: suspicious name", m.Name)
		}
		// Masks must be monotonically tightening outward.
		for i := 1; i < len(m.Points); i++ {
			if m.Points[i].LimitDBc > m.Points[i-1].LimitDBc {
				t.Errorf("%s: mask loosens at %g Hz", name, m.Points[i].OffsetHz)
			}
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown mask must not resolve")
	}
}

// TestCheckRejectsNonFiniteSpectrum: a NaN bin never compares below a
// limit, so Check would report a pass with a +Inf margin; it must be an
// error instead, whether the NaN sits in the skirt or in the channel.
func TestCheckRejectsNonFiniteSpectrum(t *testing.T) {
	m := WidebandQPSK15M()
	fc := 1e9
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, where := range []float64{fc + 20e6, fc} {
			spec := flatChannelSpectrum(fc, m.ChannelBW, 120e6, 50e3, func(off float64) float64 { return -70 })
			i := int((where - spec.Freqs[0]) / spec.BinWidth)
			spec.PSD[i] = bad
			if rep, err := Check(m, spec, fc); err == nil {
				t.Errorf("PSD %g at %g Hz: no error (pass %v, worst margin %g dB)", bad, where, rep.Pass, rep.WorstMarginDB)
			}
		}
	}
}
