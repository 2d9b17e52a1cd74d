package mask

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dsp"
)

// checkOracle is the reference form of Check: every offset integrates its
// window through Spectrum.PowerInBand (two binary searches) and looks its
// limit up through limitAtOracle (a breakpoint scan). Check's bin cursors and
// breakpoint index must reproduce its Report exactly.
func checkOracle(m *Mask, spec *dsp.Spectrum, fc float64) (*Report, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if spec == nil || spec.Len() == 0 {
		return nil, fmt.Errorf("mask %q: empty spectrum", m.Name)
	}
	for i, v := range spec.PSD {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mask %q: non-finite PSD %g at %g Hz", m.Name, v, spec.Freqs[i])
		}
	}
	if spec.Freqs[0] > fc-m.ChannelBW/2 || spec.Freqs[spec.Len()-1] < fc+m.ChannelBW/2 {
		return nil, fmt.Errorf("mask %q: spectrum [%g, %g] does not cover the channel at %g",
			m.Name, spec.Freqs[0], spec.Freqs[spec.Len()-1], fc)
	}
	chanPow := spec.PowerInBand(fc-m.ChannelBW/2, fc+m.ChannelBW/2)
	if chanPow <= 0 {
		return nil, fmt.Errorf("mask %q: zero channel power", m.Name)
	}
	rep := &Report{MaskName: m.Name, Pass: true, ChannelPower: chanPow,
		WorstMarginDB: math.Inf(1)}
	step := m.RefBW / 2
	window := math.Max(m.RefBW, 2.5*spec.BinWidth)
	start := math.Max(m.ChannelBW/2+window/2, m.Points[0].OffsetHz)
	outside := func(f float64) bool {
		return f-window/2 < spec.Freqs[0] || f+window/2 > spec.Freqs[spec.Len()-1]
	}
	kept := 0
	for side := -1; side <= 1; side += 2 {
		for off := start; off <= m.MaxOffset(); off += step {
			if !outside(fc + float64(side)*off) {
				kept++
			}
		}
	}
	rep.Offsets = make([]float64, 0, kept)
	rep.LevelsDBc = make([]float64, 0, kept)
	rep.LimitsDBc = make([]float64, 0, kept)
	for side := -1; side <= 1; side += 2 {
		for off := start; off <= m.MaxOffset(); off += step {
			f := fc + float64(side)*off
			if outside(f) {
				continue
			}
			p := spec.PowerInBand(f-window/2, f+window/2) * (m.RefBW / window)
			level := dsp.PowerDB(p / chanPow)
			limit := limitAtOracle(m, off)
			margin := limit - level
			rep.Offsets = append(rep.Offsets, float64(side)*off)
			rep.LevelsDBc = append(rep.LevelsDBc, level)
			rep.LimitsDBc = append(rep.LimitsDBc, limit)
			if margin < rep.WorstMarginDB {
				rep.WorstMarginDB = margin
				rep.WorstOffsetHz = float64(side) * off
			}
			if margin < 0 {
				rep.Pass = false
				rep.Violations = append(rep.Violations, Violation{
					Freq: f, OffsetHz: float64(side) * off,
					LevelDBc: level, LimitDBc: limit,
				})
			}
		}
	}
	if len(rep.Offsets) == 0 {
		return nil, fmt.Errorf("mask %q: no offsets could be evaluated (span too small)", m.Name)
	}
	return rep, nil
}

// randomSpectrum draws a two-sided spectrum centred near fc: a uniform or
// jittered (non-decreasing, occasionally tied) frequency axis and a PSD
// with a hot channel, random skirts and some empty bins.
func randomSpectrum(rng *rand.Rand, fc float64) *dsp.Spectrum {
	n := 16 + rng.Intn(1024)
	binW := math.Pow(10, 3+4*rng.Float64())
	f0 := fc - binW*float64(n)*(0.3+0.4*rng.Float64())
	fr := make([]float64, n)
	ps := make([]float64, n)
	jitter := rng.Intn(2) == 1
	for i := range fr {
		fr[i] = f0 + float64(i)*binW
		if jitter {
			fr[i] += (rng.Float64() - 0.5) * 0.9 * binW
			if i > 0 && (fr[i] < fr[i-1] || rng.Intn(50) == 0) {
				fr[i] = fr[i-1]
			}
		}
		switch {
		case rng.Intn(20) == 0:
			ps[i] = 0
		case math.Abs(fr[i]-fc) < binW*float64(n)/8:
			ps[i] = rng.Float64()
		default:
			ps[i] = 1e-6 * rng.ExpFloat64()
		}
	}
	return &dsp.Spectrum{Freqs: fr, PSD: ps, BinWidth: binW}
}

// randomMask draws a valid mask (or, rarely, an invalid one) scaled to the
// spectrum's span.
func randomMask(rng *rand.Rand, span float64) *Mask {
	m := &Mask{
		Name:      "random",
		ChannelBW: span * (0.02 + 0.3*rng.Float64()),
		RefBW:     span * math.Pow(10, -3+2*rng.Float64()),
	}
	k := 1 + rng.Intn(6)
	off := m.ChannelBW / 2 * (1 + 0.2*rng.Float64())
	if rng.Intn(40) == 0 {
		off = m.ChannelBW / 4 // inside the channel: Validate refuses it
	}
	for i := 0; i < k; i++ {
		m.Points = append(m.Points, Point{OffsetHz: off, LimitDBc: -10 - 60*rng.Float64()})
		if rng.Intn(8) != 0 { // else the next breakpoint repeats this offset
			off += span * (1e-3 + 0.3*rng.Float64())
		}
	}
	return m
}

// TestCheckMatchesOracle: over random spectra, masks and carriers, Check
// and checkOracle return equal Reports (every field compared with ==,
// slices element by element) or the same error.
func TestCheckMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	evaluated := 0
	for trial := 0; trial < 3000; trial++ {
		fc := 1e9 * rng.Float64()
		spec := randomSpectrum(rng, fc)
		span := spec.Freqs[spec.Len()-1] - spec.Freqs[0]
		m := randomMask(rng, span)
		if rng.Intn(4) == 0 {
			fc += (rng.Float64() - 0.5) * span / 4
		}
		got, gotErr := Check(m, spec, fc)
		want, wantErr := checkOracle(m, spec, fc)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, oracle %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		evaluated++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Check differs from the oracle:\ngot  %+v\nwant %+v", trial, got, want)
		}
	}
	// The draw must exercise the walk, not only the error paths.
	if evaluated < 1000 {
		t.Errorf("only %d of 3000 trials reached the offset walk", evaluated)
	}
}

// TestCheckMatchesOracleBuiltinMasks runs every built-in mask over a
// synthetic channel spectrum with regrown skirts, at several bin widths.
func TestCheckMatchesOracleBuiltinMasks(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		for _, binW := range []float64{m.RefBW / 3, m.RefBW, 3 * m.RefBW} {
			span := 2.5 * (m.ChannelBW/2 + m.MaxOffset())
			spec := flatChannelSpectrum(1e9, m.ChannelBW, span, binW, func(off float64) float64 {
				return -20 - 30*off/m.MaxOffset()
			})
			got, gotErr := Check(m, spec, 1e9)
			want, wantErr := checkOracle(m, spec, 1e9)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s binW %g: errors %v / %v", name, binW, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s binW %g: Check differs from the oracle", name, binW)
			}
		}
	}
}

// limitAt is the mask limit at the signed offset f - fc, looked up from
// the first breakpoint.
func limitAt(m *Mask, offset float64) float64 {
	limit, _ := m.limitFrom(0, math.Abs(offset))
	return limit
}

// limitAtOracle is the reference breakpoint scan limitFrom must match.
func limitAtOracle(m *Mask, offset float64) float64 {
	offset = math.Abs(offset)
	pts := m.Points
	if offset <= pts[0].OffsetHz {
		return pts[0].LimitDBc
	}
	for i := 1; i < len(pts); i++ {
		if offset <= pts[i].OffsetHz {
			w := (offset - pts[i-1].OffsetHz) / (pts[i].OffsetHz - pts[i-1].OffsetHz)
			return pts[i-1].LimitDBc + w*(pts[i].LimitDBc-pts[i-1].LimitDBc)
		}
	}
	return pts[len(pts)-1].LimitDBc
}

// TestLimitAtMatchesOracle compares limitAt with the breakpoint scan bit
// for bit, on signed, infinite and NaN offsets too.
func TestLimitAtMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		m := randomMask(rng, 1e7)
		for _, off := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, m.Points[0].OffsetHz,
			m.MaxOffset(), (rng.Float64() - 0.5) * 8e6, rng.Float64() * 4e6} {
			got, want := limitAt(m, off), limitAtOracle(m, off)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: limitAt(%g) = %g, oracle %g", trial, off, got, want)
			}
		}
	}
}
