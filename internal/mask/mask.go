// Package mask implements transmit spectral-mask definitions and compliance
// checking — the paper's motivating application: "characterization of the
// transmitter chain with respect to compliance to the spectral mask" is
// called "the most vexing post-manufacture test issue for tactical radio
// units" (Section I). A mask limits the emitted power spectral density,
// integrated in a reference bandwidth, as a function of offset from the
// carrier, relative to the total in-channel power.
package mask

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
)

// Point is one mask breakpoint: at |f - fc| = OffsetHz the allowed level is
// LimitDBc (dB relative to the channel power, measured in RefBW).
type Point struct {
	OffsetHz float64
	LimitDBc float64
}

// Mask is a symmetric transmit spectral mask.
type Mask struct {
	// Name identifies the mask in reports.
	Name string
	// ChannelBW is the occupied bandwidth over which the reference channel
	// power is integrated.
	ChannelBW float64
	// RefBW is the measurement (integration) bandwidth for each mask point.
	RefBW float64
	// Points are the breakpoints, sorted by increasing offset; between
	// points the limit is linearly interpolated in offset, beyond the last
	// point it stays at the final limit. Offsets inside ChannelBW/2 are
	// not evaluated.
	Points []Point
}

// Validate checks internal consistency.
func (m *Mask) Validate() error {
	if m.ChannelBW <= 0 || m.RefBW <= 0 {
		return fmt.Errorf("mask %q: ChannelBW and RefBW must be positive", m.Name)
	}
	if len(m.Points) == 0 {
		return fmt.Errorf("mask %q: no breakpoints", m.Name)
	}
	if !sort.SliceIsSorted(m.Points, func(i, j int) bool {
		return m.Points[i].OffsetHz < m.Points[j].OffsetHz
	}) {
		return fmt.Errorf("mask %q: breakpoints not sorted by offset", m.Name)
	}
	if m.Points[0].OffsetHz < m.ChannelBW/2 {
		return fmt.Errorf("mask %q: first breakpoint %g inside the channel", m.Name, m.Points[0].OffsetHz)
	}
	return nil
}

// limitFrom returns the mask limit (dBc) at the offset |f - fc|: the first
// limit up to the first breakpoint, the linear interpolation between
// breakpoints, the last limit beyond the last. It scans the breakpoints
// from index k, which must not lie past the first breakpoint at or beyond
// offset (0 always qualifies), and also returns that breakpoint's index
// (len(Points) when none), so a walk over increasing offsets resumes where
// the last call stopped.
func (m *Mask) limitFrom(k int, offset float64) (limit float64, next int) {
	pts := m.Points
	for k < len(pts) && !(offset <= pts[k].OffsetHz) {
		k++
	}
	switch k {
	case 0:
		return pts[0].LimitDBc, k
	case len(pts):
		return pts[len(pts)-1].LimitDBc, k
	}
	w := (offset - pts[k-1].OffsetHz) / (pts[k].OffsetHz - pts[k-1].OffsetHz)
	return pts[k-1].LimitDBc + w*(pts[k].LimitDBc-pts[k-1].LimitDBc), k
}

// binCursor holds the bin range [lo, hi) of bins whose centre lies in a
// window [f1, f2] (the range Spectrum.PowerInBand integrates). seek steps
// both bounds from where the previous window left them, so a window that
// walks along the frequency axis costs amortised O(1) per step instead of
// two binary searches; from any start it lands on the same bounds.
type binCursor struct{ lo, hi int }

func (c *binCursor) seek(freqs []float64, f1, f2 float64) (lo, hi int) {
	for c.lo > 0 && freqs[c.lo-1] >= f1 {
		c.lo--
	}
	for c.lo < len(freqs) && freqs[c.lo] < f1 {
		c.lo++
	}
	for c.hi > 0 && freqs[c.hi-1] > f2 {
		c.hi--
	}
	for c.hi < len(freqs) && freqs[c.hi] <= f2 {
		c.hi++
	}
	return c.lo, c.hi
}

// MaxOffset returns the largest breakpoint offset (the mask evaluation
// range).
func (m *Mask) MaxOffset() float64 { return m.Points[len(m.Points)-1].OffsetHz }

// Violation records one mask exceedance.
type Violation struct {
	// Freq is the absolute frequency of the violating measurement.
	Freq float64
	// OffsetHz is the offset from the carrier.
	OffsetHz float64
	// LevelDBc is the measured level.
	LevelDBc float64
	// LimitDBc is the allowed level.
	LimitDBc float64
}

// Report is the outcome of a mask check.
type Report struct {
	MaskName string
	Pass     bool
	// WorstMarginDB is the minimum (limit - level) across all evaluated
	// offsets; negative when the mask is violated.
	WorstMarginDB float64
	// WorstOffsetHz locates the worst margin.
	WorstOffsetHz float64
	// ChannelPower is the integrated in-channel power (V^2).
	ChannelPower float64
	// Violations lists every exceedance.
	Violations []Violation
	// Offsets and LevelsDBc trace the measured emission profile (both
	// sides, ordered by signed offset) for plotting.
	Offsets   []float64
	LevelsDBc []float64
	LimitsDBc []float64
}

// Check evaluates the mask against a two-sided PSD estimate centred on
// carrier fc. The spectrum must cover fc +- (ChannelBW/2 + MaxOffset).
func Check(m *Mask, spec *dsp.Spectrum, fc float64) (*Report, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if spec == nil || spec.Len() == 0 {
		return nil, fmt.Errorf("mask %q: empty spectrum", m.Name)
	}
	// A NaN bin never compares below a limit, so it would pass silently.
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
	// Walk offsets from the channel edge to MaxOffset in RefBW/2 steps, on
	// both sides of the carrier. When the spectrum's bin spacing is coarser
	// than RefBW, integrate over a window wide enough to contain bins and
	// rescale to the reference bandwidth (PSD assumed locally flat) —
	// otherwise most windows would silently contain no bin at all.
	step := m.RefBW / 2
	window := math.Max(m.RefBW, 2.5*spec.BinWidth)
	// Start far enough out that the integration window never overlaps the
	// occupied channel itself.
	start := math.Max(m.ChannelBW/2+window/2, m.Points[0].OffsetHz)
	// outside reports a window beyond the measured span; the walk skips it
	// silently. A first walk counts the kept offsets to size the traces.
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
	// On each side the window moves away from the carrier as off grows, so
	// its bins and its mask segment move one way only: a bin cursor and a
	// breakpoint index replace a binary search per bound and a breakpoint
	// scan per offset, with the same bins summed in the same order.
	var bins binCursor
	for side := -1; side <= 1; side += 2 {
		seg := 0
		for off := start; off <= m.MaxOffset(); off += step {
			f := fc + float64(side)*off
			if outside(f) {
				continue
			}
			p := spec.PowerInBins(bins.seek(spec.Freqs, f-window/2, f+window/2)) * (m.RefBW / window)
			level := dsp.PowerDB(p / chanPow)
			var limit float64
			limit, seg = m.limitFrom(seg, off)
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

// ACPR computes the adjacent-channel power ratio: power in a ChannelBW-wide
// band centred at fc + spacing, relative to the main channel power, in dB.
func ACPR(spec *dsp.Spectrum, fc, channelBW, spacing float64) (float64, error) {
	if spec == nil || spec.Len() == 0 {
		return 0, fmt.Errorf("mask: ACPR: empty spectrum")
	}
	if channelBW <= 0 {
		return 0, fmt.Errorf("mask: ACPR: channel bandwidth must be positive")
	}
	main := spec.PowerInBand(fc-channelBW/2, fc+channelBW/2)
	adj := spec.PowerInBand(fc+spacing-channelBW/2, fc+spacing+channelBW/2)
	if main <= 0 {
		return 0, fmt.Errorf("mask: ACPR: zero main-channel power")
	}
	return dsp.PowerDB(adj / main), nil
}
