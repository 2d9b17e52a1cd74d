package campaign

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func runPlanCells(t *testing.T, p *Plan, indices []int) []CellResult {
	t.Helper()
	var out []CellResult
	for _, i := range indices {
		r, err := p.RunCell(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func allIndices(p *Plan) []int {
	out := make([]int, len(p.Cells))
	for i := range out {
		out[i] = i
	}
	return out
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := planGrid()
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewCheckpoint(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runPlanCells(t, p, allIndices(p)) {
		ck.Add(r)
	}
	b, err := ck.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := ParseCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ck2.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Error("checkpoint does not round-trip byte-stable")
	}
	if err := ck2.Validate(p); err != nil {
		t.Errorf("round-tripped checkpoint fails validation: %v", err)
	}
}

func TestCheckpointAddReplacesAndSorts(t *testing.T) {
	ck := &Checkpoint{GridHash: "x", ShardCount: 1}
	ck.Add(CellResult{Stimulus: "b", Fault: "f", Units: 1})
	ck.Add(CellResult{Stimulus: "a", Fault: "f", Units: 1})
	ck.Add(CellResult{Stimulus: "b", Fault: "f", Units: 1, Rejected: 1})
	if len(ck.Cells) != 2 {
		t.Fatalf("Add kept %d cells, want 2 (replacement, not append)", len(ck.Cells))
	}
	if ck.Cells[0].Stimulus != "a" || ck.Cells[1].Stimulus != "b" {
		t.Error("cells not sorted by stimulus")
	}
	if ck.Cells[1].Rejected != 1 {
		t.Error("Add did not replace the earlier result")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ParseCheckpoint([]byte(`{"GridHash":"x","Bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseCheckpoint([]byte(`{} {}`)); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestCheckpointValidateMismatches(t *testing.T) {
	p, err := NewPlan(planGrid())
	if err != nil {
		t.Fatal(err)
	}
	h, _ := p.GridHash()

	ck := &Checkpoint{GridHash: "deadbeef", ShardCount: 1}
	if err := ck.Validate(p); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Errorf("foreign grid hash accepted: %v", err)
	}
	ck = &Checkpoint{GridHash: h, ShardIndex: 3, ShardCount: 2}
	if err := ck.Validate(p); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Errorf("out-of-range shard accepted: %v", err)
	}
	ck = &Checkpoint{GridHash: h, ShardCount: 1,
		Cells: []CellResult{{Stimulus: "nope", Fault: "healthy", Units: 1}}}
	if err := ck.Validate(p); err == nil || !strings.Contains(err.Error(), "not in plan") {
		t.Errorf("foreign cell accepted: %v", err)
	}
	ck = &Checkpoint{GridHash: h, ShardCount: 1,
		Cells: []CellResult{{Stimulus: "qpsk-tiny", Fault: healthyName, Units: 99}}}
	if err := ck.Validate(p); err == nil || !strings.Contains(err.Error(), "units") {
		t.Errorf("stale unit count accepted: %v", err)
	}
}

// TestCheckpointValidateRefusesImpossibleCells: a cell whose tallies no
// run could produce, or whose fault expectation contradicts the plan, is
// refused by Validate and so by resume and merge. The tampered cells
// would otherwise fold straight into the matrix (a healthy cell claiming
// ShouldFail shows up as an escape, a moved margin shifts WorstMarginDB).
func TestCheckpointValidateRefusesImpossibleCells(t *testing.T) {
	g := planGrid()
	g.Units = 4
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := p.GridHash()
	valid := CellResult{Stimulus: "qpsk-tiny", Fault: healthyName, Units: 4, Rejected: 2, Errors: 1, DetectionRate: 0.5,
		HasMargin: true, WorstMarginDB: -1.5}
	ck := &Checkpoint{GridHash: h, ShardCount: 1, Cells: []CellResult{valid}}
	if err := ck.Validate(p); err != nil {
		t.Fatalf("consistent cell refused: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(r *CellResult)
		want   string
	}{
		{"should_fail_flipped", func(r *CellResult) { r.ShouldFail = true }, "ShouldFail"},
		{"rejected_above_units", func(r *CellResult) { r.Rejected, r.DetectionRate = 5, 1.25 }, "tallies"},
		{"rejected_negative", func(r *CellResult) { r.Rejected, r.Errors, r.DetectionRate = -1, 0, -0.25 }, "tallies"},
		{"errors_above_rejected", func(r *CellResult) { r.Errors = 3 }, "tallies"},
		{"errors_negative", func(r *CellResult) { r.Errors = -1 }, "tallies"},
		{"detection_rate_mismatch", func(r *CellResult) { r.DetectionRate = 0.7 }, "detection rate"},
		{"margin_without_verdict", func(r *CellResult) { r.HasMargin = false }, "margin"},
		{"margin_all_errored", func(r *CellResult) { r.Rejected, r.Errors, r.DetectionRate = 4, 4, 1 }, "margin"},
		{"negative_margin_nothing_failed", func(r *CellResult) { r.Errors = 2 }, "margin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid
			tc.mutate(&r)
			ck := &Checkpoint{GridHash: h, ShardCount: 1, Cells: []CellResult{r}}
			if err := ck.Validate(p); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("cell %+v: Validate = %v, want an error naming %q", r, err, tc.want)
			}
		})
	}
}

// TestMergeRefusesTamperedCheckpoint: the merge path runs the same
// checks, so a checkpoint whose healthy cell claims impossible tallies, or
// a margin without a mask verdict, cannot reach the merged matrix (the
// first would turn the cell into an escape, the second move its margin).
func TestMergeRefusesTamperedCheckpoint(t *testing.T) {
	g := planGrid()
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	cells := runPlanCells(t, p, allIndices(p))
	for _, r := range cells {
		if r.Fault == healthyName && (!r.HasMargin || r.WorstMarginDB == 0) {
			t.Fatalf("healthy cell has no nonzero margin to tamper with: %+v", r)
		}
	}
	cases := []struct {
		name   string
		tamper func(r *CellResult)
	}{
		{"impossible_tallies", func(r *CellResult) {
			r.Rejected, r.Errors, r.DetectionRate, r.ShouldFail = 5, 9, 0.7, true
		}},
		{"margin_without_verdict", func(r *CellResult) { r.HasMargin = false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := NewCheckpoint(p, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range cells {
				if r.Fault == healthyName {
					tc.tamper(&r)
				}
				ck.Add(r)
			}
			if _, err := MergeCheckpoints(g, ck); err == nil {
				t.Error("merge accepted a checkpoint with a tampered healthy cell")
			}
		})
	}
}

// TestCheckpointAddOrderInvariant: however one result set arrives — any
// insertion order, with earlier results for the same key replaced by the
// final one — Add leaves Cells sorted and unique, and the checkpoint
// marshals to the same bytes.
func TestCheckpointAddOrderInvariant(t *testing.T) {
	stims := []string{"a", "ab", "b", "b-2", "qpsk"}
	faults := []string{"dead-gain", "healthy", "iq-skew", "pa", "pa-compression"}
	var final []CellResult
	for _, s := range stims {
		for _, f := range faults {
			final = append(final, CellResult{Stimulus: s, Fault: f, Units: 3, Rejected: len(final) % 4})
		}
	}
	want, err := (&Checkpoint{GridHash: "x", ShardCount: 1, Cells: final}).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Per key: zero to two stale results, then the final one. Popping
		// the head of a random non-empty queue interleaves the keys at
		// random while each key's final result still lands last.
		queues := make([][]CellResult, len(final))
		for i, r := range final {
			for n := rng.Intn(3); n > 0; n-- {
				stale := r
				stale.Rejected, stale.HasMargin = rng.Intn(4), true
				queues[i] = append(queues[i], stale)
			}
			queues[i] = append(queues[i], r)
		}
		ck := &Checkpoint{GridHash: "x", ShardCount: 1}
		for left := len(final); left > 0; {
			i := rng.Intn(len(queues))
			if len(queues[i]) == 0 {
				continue
			}
			ck.Add(queues[i][0])
			if queues[i] = queues[i][1:]; len(queues[i]) == 0 {
				left--
			}
		}
		for i := 1; i < len(ck.Cells); i++ {
			if compareResults(ck.Cells[i-1], ck.Cells[i]) >= 0 {
				t.Fatalf("seed %d: cells %d and %d out of order or duplicated: %s/%s, %s/%s", seed, i-1, i,
					ck.Cells[i-1].Stimulus, ck.Cells[i-1].Fault, ck.Cells[i].Stimulus, ck.Cells[i].Fault)
			}
		}
		got, err := ck.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: checkpoint bytes depend on insertion order", seed)
		}
	}
}

// TestMergeCheckpointsEqualsSingleProcess pins the sharding contract at
// the library level: two shard checkpoints merge into the same bytes the
// unsharded run produces, and incomplete or overlapping coverage is
// refused.
func TestMergeCheckpointsEqualsSingleProcess(t *testing.T) {
	g := planGrid()
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantB, _ := want.MarshalCanonical()

	cks := shardCheckpoints(t, g)
	m, err := MergeCheckpoints(g, cks...)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _ := m.MarshalCanonical()
	if string(gotB) != string(wantB) {
		t.Error("merged shard matrices differ from the single-process run")
	}

	if _, err := MergeCheckpoints(g, cks[0]); err == nil {
		t.Error("merge with a missing shard accepted")
	}
	if _, err := MergeCheckpoints(g, cks[0], cks[0], cks[1]); err == nil {
		t.Error("merge with duplicate coverage accepted")
	}
}

// shardCheckpoints runs the grid as shards 0/2 and 1/2 and returns their
// checkpoints.
func shardCheckpoints(t *testing.T, g Grid) []*Checkpoint {
	t.Helper()
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	var cks []*Checkpoint
	for idx := 0; idx < 2; idx++ {
		ids, err := p.ShardIndices(idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := NewCheckpoint(p, idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runPlanCells(t, p, ids) {
			ck.Add(r)
		}
		cks = append(cks, ck)
	}
	return cks
}

// TestMergeRefusesCellOutsideShard: a cell moved from shard 1's checkpoint
// into shard 0's still covers every plan cell exactly once, but shard 0's
// strided partition does not own it, so Validate (and with it the merge)
// refuses the moved cell.
func TestMergeRefusesCellOutsideShard(t *testing.T) {
	g := planGrid()
	cks := shardCheckpoints(t, g)
	moved := cks[1].Cells[0]
	cks[1].Cells = cks[1].Cells[1:]
	cks[0].Add(moved)
	_, err := MergeCheckpoints(g, cks...)
	if want := "outside shard 0/2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("merge of a checkpoint carrying shard 1's cell %s/%s: err %v, want %q",
			moved.Stimulus, moved.Fault, err, want)
	}
}
