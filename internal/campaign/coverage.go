package campaign

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/testkit"
)

var (
	mCells    = obs.C("campaign.cells")
	mUnits    = obs.C("campaign.units")
	mRejected = obs.C("campaign.rejected")
	mErrors   = obs.C("campaign.errors")
	// mCellSeconds is the fleet SLO histogram: wall-clock seconds per cell,
	// exposed to Prometheus as bist_campaign_cell_seconds. Telemetry only —
	// the duration never reaches CellResult, which stays a pure function of
	// the cell's content.
	mCellSeconds = obs.H("campaign.cell.seconds", obs.LatencyBuckets)
	tnCell       = trace.Intern("campaign.cell")
)

// healthyName labels the implicit no-fault baseline row every campaign
// carries: a stimulus that rejects healthy units is measuring itself, not
// the DUT, and its false-alarm rate shows it.
const healthyName = "healthy"

// CellResult is one (stimulus, fault) cell of the detection matrix,
// aggregated over the grid's units.
type CellResult struct {
	// Stimulus and Fault name the cell.
	Stimulus string
	Fault    string
	// ShouldFail records the catalogue expectation for the injected fault.
	ShouldFail bool
	// Units is the number of device draws simulated.
	Units int
	// Rejected counts units the BIST flagged (run errors count as
	// rejections: a unit the instrument cannot even measure is not
	// shippable).
	Rejected int
	// Errors counts units whose run failed outright instead of returning a
	// verdict.
	Errors int
	// DetectionRate is Rejected / Units.
	DetectionRate float64
	// HasMargin reports whether any unit produced a mask verdict at all;
	// WorstMarginDB is meaningful only when it is true. The split keeps a
	// genuine 0 dB worst margin (a DUT exactly on the mask) distinct from
	// "no mask verdict produced" (e.g. every unit errored out), which a
	// bare zero used to conflate.
	HasMargin bool
	// WorstMarginDB is the worst mask margin seen across units (0 when
	// HasMargin is false).
	WorstMarginDB float64
}

// Key names the result's cell: the same identity Cell.Key gives the plan
// cell it came from.
func (r CellResult) Key() string { return cellKey(r.Stimulus, r.Fault) }

// compareResults orders results by cell key (see compareKeys).
func compareResults(a, b CellResult) int {
	return compareKeys(a.Stimulus, a.Fault, b.Stimulus, b.Fault)
}

// FaultSummary scores one fault across every stimulus in the grid.
type FaultSummary struct {
	Fault      string
	ShouldFail bool
	// BestStimulus is the stimulus with the highest detection rate
	// (lowest name on ties).
	BestStimulus string
	// BestRate is that stimulus's detection rate.
	BestRate float64
	// EscapeRate is 1 - BestRate for ShouldFail faults: the fraction of
	// defective units the best stimulus still ships. 0 for benign faults.
	EscapeRate float64
	// Detected reports BestRate >= the grid's yield threshold (benign
	// faults: whether any stimulus false-alarms at the threshold).
	Detected bool
}

// StimulusSummary scores one stimulus across every fault.
type StimulusSummary struct {
	Stimulus string
	// Coverage is the fraction of ShouldFail faults this stimulus detects
	// at the yield threshold.
	Coverage float64
	// FalseAlarmRate is the mean rejection rate over the benign rows
	// (healthy baseline + ShouldFail=false catalogue entries).
	FalseAlarmRate float64
}

// Escape is a ShouldFail cell that shipped at least one defective unit.
type Escape struct {
	Stimulus      string
	Fault         string
	DetectionRate float64
}

// DetectionMatrix is the campaign report: canonical-JSON serializable,
// byte-identical at any worker count and invariant under permutation of
// the grid's stimulus or fault row order (everything is sorted by name and
// every cell's randomness derives from its content, not its index).
type DetectionMatrix struct {
	// Units, Scale and YieldThreshold echo the grid knobs the numbers
	// depend on.
	Units          int
	Scale          float64
	YieldThreshold float64
	// Cells is the full matrix, sorted by (stimulus, fault).
	Cells []CellResult
	// PerFault and PerStimulus are the two marginals, sorted by name.
	PerFault    []FaultSummary
	PerStimulus []StimulusSummary
	// Escapes lists every ShouldFail cell with DetectionRate < 1: the
	// stimulus/fault pairs where defective units ship.
	Escapes []Escape
	// Errors is the total failed runs across all cells.
	Errors int
}

// MarshalCanonical encodes the matrix as canonical JSON.
func (m *DetectionMatrix) MarshalCanonical() ([]byte, error) {
	return testkit.MarshalCanonical(m)
}

// cellSeed derives a cell's RNG seed from its content: FNV-1a over the
// stimulus's canonical JSON and the fault name, folded with the grid seed.
// Index-free seeding is what makes the matrix invariant under grid row
// permutation — the cell carries its randomness with it wherever it sits.
func cellSeed(gridSeed int64, specCanon []byte, fault string) int64 {
	h := fnv.New64a()
	h.Write(specCanon)
	h.Write([]byte{0})
	h.Write([]byte(fault))
	return int64(h.Sum64() ^ uint64(gridSeed))
}

// Run expands the grid into (stimulus, fault, unit) cells, runs every cell
// through the full BIST over the par pool, and folds the results into the
// detection matrix. It is the batch convenience over the incremental
// primitives (NewPlan / Plan.RunCell / Plan.Fold) the fleet service
// schedules cell by cell; both paths produce the same bytes because every
// cell result is a pure function of the cell's content and the fold sorts
// by name — never by worker count, arrival order or grid row order.
func (g Grid) Run() (*DetectionMatrix, error) {
	p, err := NewPlan(g)
	if err != nil {
		return nil, err
	}
	cells, err := par.MapErr(len(p.Cells), func(i int) (CellResult, error) { return p.RunCell(i, nil) })
	if err != nil {
		return nil, err
	}
	return p.Fold(cells), nil
}

// fold sorts the cells and computes the two marginals and the escape list.
func (g Grid) fold(cells []CellResult) *DetectionMatrix {
	slices.SortFunc(cells, compareResults)
	m := &DetectionMatrix{
		Units:          g.Units,
		Scale:          g.Scale,
		YieldThreshold: g.YieldThreshold,
		Cells:          cells,
	}
	byFault := map[string][]CellResult{}
	byStim := map[string][]CellResult{}
	for _, c := range cells {
		byFault[c.Fault] = append(byFault[c.Fault], c)
		byStim[c.Stimulus] = append(byStim[c.Stimulus], c)
		m.Errors += c.Errors
		if c.ShouldFail && c.DetectionRate < 1 {
			m.Escapes = append(m.Escapes, Escape{
				Stimulus:      c.Stimulus,
				Fault:         c.Fault,
				DetectionRate: c.DetectionRate,
			})
		}
	}
	faultNames := make([]string, 0, len(byFault))
	for name := range byFault {
		faultNames = append(faultNames, name)
	}
	sort.Strings(faultNames)
	for _, name := range faultNames {
		rows := byFault[name]
		fs := FaultSummary{Fault: name, ShouldFail: rows[0].ShouldFail}
		for _, c := range rows { // rows arrive sorted by stimulus: ties keep the lowest name
			if fs.BestStimulus == "" || c.DetectionRate > fs.BestRate {
				fs.BestStimulus, fs.BestRate = c.Stimulus, c.DetectionRate
			}
		}
		fs.Detected = fs.BestRate >= g.YieldThreshold
		if fs.ShouldFail {
			fs.EscapeRate = 1 - fs.BestRate
		}
		m.PerFault = append(m.PerFault, fs)
	}
	stimNames := make([]string, 0, len(byStim))
	for name := range byStim {
		stimNames = append(stimNames, name)
	}
	sort.Strings(stimNames)
	for _, name := range stimNames {
		rows := byStim[name]
		ss := StimulusSummary{Stimulus: name}
		nBad, nBenign := 0, 0
		var caught int
		var alarmSum float64
		for _, c := range rows {
			if c.ShouldFail {
				nBad++
				if c.DetectionRate >= g.YieldThreshold {
					caught++
				}
			} else {
				nBenign++
				alarmSum += c.DetectionRate
			}
		}
		if nBad > 0 {
			ss.Coverage = float64(caught) / float64(nBad)
		}
		if nBenign > 0 {
			ss.FalseAlarmRate = alarmSum / float64(nBenign)
		}
		m.PerStimulus = append(m.PerStimulus, ss)
	}
	return m
}

// Render prints the matrix for terminal consumption: the stimulus x fault
// grid of detection rates, then the marginals and the escape list.
func (m *DetectionMatrix) Render(w io.Writer) {
	fmt.Fprintf(w, "Coverage campaign — %d units/cell, scale %g, yield threshold %g\n\n",
		m.Units, m.Scale, m.YieldThreshold)
	fmt.Fprintf(w, "%-18s %-16s %6s %9s %7s %12s\n",
		"stimulus", "fault", "expect", "detected", "errors", "worst margin")
	for _, c := range m.Cells {
		expect := "pass"
		if c.ShouldFail {
			expect = "fail"
		}
		margin := "n/a"
		if c.HasMargin {
			margin = fmt.Sprintf("%+9.1f dB", c.WorstMarginDB)
		}
		fmt.Fprintf(w, "%-18s %-16s %6s %8.0f%% %7d %12s\n",
			c.Stimulus, c.Fault, expect, 100*c.DetectionRate, c.Errors, margin)
	}
	fmt.Fprintf(w, "\nper-fault (best stimulus):\n")
	for _, f := range m.PerFault {
		status := "DETECTED"
		if !f.Detected {
			if f.ShouldFail {
				status = "MISSED"
			} else {
				status = "clean"
			}
		} else if !f.ShouldFail {
			status = "FALSE-ALARM"
		}
		fmt.Fprintf(w, "  %-16s best=%-18s rate=%4.0f%% escape=%4.0f%%  %s\n",
			f.Fault, f.BestStimulus, 100*f.BestRate, 100*f.EscapeRate, status)
	}
	fmt.Fprintf(w, "\nper-stimulus:\n")
	for _, s := range m.PerStimulus {
		fmt.Fprintf(w, "  %-18s coverage=%4.0f%%  false-alarm=%4.0f%%\n",
			s.Stimulus, 100*s.Coverage, 100*s.FalseAlarmRate)
	}
	if len(m.Escapes) > 0 {
		fmt.Fprintf(w, "\nescapes (defective units shipped):\n")
		for _, e := range m.Escapes {
			fmt.Fprintf(w, "  %-18s x %-16s detection %4.0f%%\n", e.Stimulus, e.Fault, 100*e.DetectionRate)
		}
	}
	if m.Errors > 0 {
		fmt.Fprintf(w, "\nrun errors: %d (counted as rejections)\n", m.Errors)
	}
}
