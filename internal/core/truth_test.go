package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/sig"
)

// runUnit builds and runs one unit, failing the test on any error.
func runUnit(t *testing.T, c Config) *Report {
	t.Helper()
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGroundTruthNeverMovesTheVerdict: ground truth reads the true waveform
// and draws no capture, so switching it on may add RefMask, ReconRelErr and
// the fidelity term of Compute.KernelEvals, and nothing else. The healthy
// unit and every base-catalogue fault at scale 0.35 must give reports that
// are equal in every other field, the estimate, the margins and the
// verdict included.
func TestGroundTruthNeverMovesTheVerdict(t *testing.T) {
	units := []struct {
		name  string
		apply func(*Config)
	}{{"healthy", nil}}
	for _, f := range Catalog() {
		units = append(units, struct {
			name  string
			apply func(*Config)
		}{f.Name, f.Apply})
	}
	for _, u := range units {
		t.Run(u.name, func(t *testing.T) {
			c := ScaleAcquisition(PaperScenario(), 0.35)
			if u.apply != nil {
				u.apply(&c)
			}
			off := runUnit(t, c)
			c.GroundTruth = true
			on := runUnit(t, c)

			if off.RefMask != nil || off.ReconRelErr != 0 {
				t.Errorf("ground truth computed without GroundTruth: RefMask %v, ReconRelErr %g",
					off.RefMask != nil, off.ReconRelErr)
			}
			if on.RefMask == nil || on.ReconRelErr <= 0 || math.IsNaN(on.ReconRelErr) {
				t.Fatalf("GroundTruth set but RefMask %v, ReconRelErr %g",
					on.RefMask != nil, on.ReconRelErr)
			}
			fidelity := int64(c.NTimes) * 2 * (2*halfTaps + 1)
			if got := on.Compute.KernelEvals - off.Compute.KernelEvals; got != fidelity {
				t.Errorf("KernelEvals rose by %d with GroundTruth, want the fidelity term %d", got, fidelity)
			}
			stripped := *on
			stripped.RefMask = nil
			stripped.ReconRelErr = 0
			stripped.Compute.KernelEvals = off.Compute.KernelEvals
			if !reflect.DeepEqual(&stripped, off) {
				t.Errorf("GroundTruth moved a report field beyond ground truth:\noff: %+v\non:  %+v", off, &stripped)
			}
		})
	}
}

// TestGroundTruthErrorIsReturned: an error while measuring ground truth is
// the run's error, wrapped as "core: ground truth: ...", never a silently
// missing RefMask. The baseband is NaN at exactly t = 0, the reference
// grid's first instant (CaptureStart is 0); the jittered capture instants
// never land there, which the GroundTruth-off run proves by passing.
func TestGroundTruthErrorIsReturned(t *testing.T) {
	tone := &sig.ComplexTone{Amp: 0.3, Freq: 5e6}
	c := fastScenario()
	c.Baseband = sig.EnvelopeFunc(func(t float64) complex128 {
		if t == 0 {
			return complex(math.NaN(), 0)
		}
		return tone.At(t)
	})
	if c.CaptureStart != 0 {
		t.Fatalf("CaptureStart %g: the poisoned instant is off the reference grid", c.CaptureStart)
	}
	if runUnit(t, c).RefMask != nil {
		t.Fatal("RefMask set without GroundTruth")
	}
	c.GroundTruth = true
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err == nil {
		t.Fatalf("ground-truth error dropped: RefMask %v", rep.RefMask != nil)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "core: ground truth: ") || !strings.Contains(msg, "non-finite PSD") {
		t.Errorf("error %q, want a wrapped core: ground truth: ... non-finite PSD error", msg)
	}
}

// TestTruthStageIsASibling: with GroundTruth set, the reference values run
// in one core.stage.truth span parented to the run, starting after the
// measure stage has ended, and the reference envelope fans out in fixed
// chunks: one par.task span per refChunk instants, none per instant.
func TestTruthStageIsASibling(t *testing.T) {
	c := fastScenario()
	c.GroundTruth = true
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.StartRecording(trace.Config{}); err != nil {
		t.Fatal(err)
	}
	_, err = b.Run()
	rec := trace.StopRecording()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]trace.SpanData{}
	for _, s := range rec.Spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	run, meas, truth := byName["core.bist.run"], byName["core.stage.measure"], byName["core.stage.truth"]
	if len(run) != 1 || len(meas) != 1 || len(truth) != 1 {
		t.Fatalf("spans: %d run, %d measure, %d truth, want 1 each", len(run), len(meas), len(truth))
	}
	if truth[0].Parent != run[0].ID {
		t.Errorf("core.stage.truth parented to %d, want core.bist.run %d", truth[0].Parent, run[0].ID)
	}
	if end := meas[0].Start + meas[0].Dur; truth[0].Start < end {
		t.Errorf("core.stage.truth starts at %d, inside measure (ends %d)", truth[0].Start, end)
	}
	// Every par.task span descends from the truth stage here: no other
	// stage of the fast scenario traces a fan-out.
	chunks := (b.cfg.PSDLen + refChunk - 1) / refChunk
	if got := len(byName["par.task"]); got != chunks {
		t.Errorf("%d par.task spans, want one per %d-instant chunk (%d)", got, refChunk, chunks)
	}
}
