package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/testkit"
)

// Checkpoint is the record of a campaign's completed cells: what a fleet
// server keeps as a running campaign's progress and writes periodically,
// loads to resume after a restart, and what two shard processes exchange
// to merge their partitions. Because every CellResult is a pure function
// of its cell's content, a checkpoint needs no positional bookkeeping —
// the cell list IS the state, and replaying the missing cells reproduces
// the uninterrupted matrix byte for byte.
type Checkpoint struct {
	// GridHash is Plan.GridHash of the campaign the cells belong to; a
	// resume or merge against a different grid is refused.
	GridHash string
	// ShardIndex/ShardCount record the strided partition this process
	// owned (0/1 for an unsharded run).
	ShardIndex int
	ShardCount int
	// Cells are the completed cell results, sorted by (stimulus, fault).
	Cells []CellResult
}

// NewCheckpoint starts an empty checkpoint for one shard of a plan.
func NewCheckpoint(p *Plan, shardIndex, shardCount int) (*Checkpoint, error) {
	h, err := p.GridHash()
	if err != nil {
		return nil, err
	}
	if shardCount < 1 {
		shardIndex, shardCount = 0, 1
	}
	if shardIndex < 0 || shardIndex >= shardCount {
		return nil, fmt.Errorf("campaign: checkpoint shard %d/%d invalid", shardIndex, shardCount)
	}
	return &Checkpoint{GridHash: h, ShardIndex: shardIndex, ShardCount: shardCount}, nil
}

// Add records a completed cell, replacing any earlier result for the same
// (stimulus, fault) key and keeping the list sorted.
func (c *Checkpoint) Add(r CellResult) {
	i, found := slices.BinarySearchFunc(c.Cells, r, compareResults)
	if found {
		c.Cells[i] = r
		return
	}
	c.Cells = slices.Insert(c.Cells, i, r)
}

// MarshalCanonical encodes the checkpoint as canonical JSON — the on-disk
// and over-the-wire form.
func (c *Checkpoint) MarshalCanonical() ([]byte, error) {
	return testkit.MarshalCanonical(c)
}

// ParseCheckpoint decodes a checkpoint, rejecting unknown fields (a
// corrupted or wrong file must fail loudly, not resume quietly).
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: parse checkpoint: trailing data")
	}
	return &c, nil
}

// Validate checks the checkpoint against a plan: hash match, shard in
// range, every cell a known key in the shard's strided partition
// (Plan.ShardIndices) with the plan's unit count and fault expectation,
// and tallies a real run could produce (0 <= Errors <=
// Rejected <= Units, DetectionRate exactly Rejected/Units as RunCell
// computes it, a mask margin those tallies allow). Cells from a foreign
// grid, another shard, a stale lot size or a tampered file cannot leak
// into a resumed or merged matrix.
func (c *Checkpoint) Validate(p *Plan) error {
	h, err := p.GridHash()
	if err != nil {
		return err
	}
	if c.GridHash != h {
		return fmt.Errorf("campaign: checkpoint grid hash %s does not match plan %s", c.GridHash, h)
	}
	if c.ShardCount < 1 || c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount {
		return fmt.Errorf("campaign: checkpoint shard %d/%d invalid", c.ShardIndex, c.ShardCount)
	}
	index := make(map[string]int, len(p.Cells))
	for i, cell := range p.Cells {
		index[cell.Key()] = i
	}
	for _, r := range c.Cells {
		i, ok := index[r.Key()]
		if !ok {
			return fmt.Errorf("campaign: checkpoint cell %s/%s not in plan", r.Stimulus, r.Fault)
		}
		if i%c.ShardCount != c.ShardIndex {
			return fmt.Errorf("campaign: checkpoint cell %s/%s is outside shard %d/%d",
				r.Stimulus, r.Fault, c.ShardIndex, c.ShardCount)
		}
		cell := p.Cells[i]
		if r.Units != p.Grid.Units {
			return fmt.Errorf("campaign: checkpoint cell %s/%s ran %d units, plan wants %d",
				r.Stimulus, r.Fault, r.Units, p.Grid.Units)
		}
		if r.ShouldFail != cell.Fault.ShouldFail {
			return fmt.Errorf("campaign: checkpoint cell %s/%s has ShouldFail %t, plan fault has %t",
				r.Stimulus, r.Fault, r.ShouldFail, cell.Fault.ShouldFail)
		}
		if r.Rejected < 0 || r.Rejected > r.Units || r.Errors < 0 || r.Errors > r.Rejected {
			return fmt.Errorf("campaign: checkpoint cell %s/%s tallies rejected=%d errors=%d over %d units are impossible",
				r.Stimulus, r.Fault, r.Rejected, r.Errors, r.Units)
		}
		if r.DetectionRate != float64(r.Rejected)/float64(r.Units) {
			return fmt.Errorf("campaign: checkpoint cell %s/%s detection rate %g is not %d/%d",
				r.Stimulus, r.Fault, r.DetectionRate, r.Rejected, r.Units)
		}
		// Tally leaves the margin 0 without a mask verdict, an all-errored
		// lot has no verdict, and mask.Check fails any negative margin, so
		// a negative worst margin needs a rejected unit that did not error.
		if !r.HasMargin && r.WorstMarginDB != 0 ||
			r.HasMargin && (r.Errors == r.Units || r.WorstMarginDB < 0 && r.Rejected == r.Errors) {
			return fmt.Errorf("campaign: checkpoint cell %s/%s margin (HasMargin %t, worst %g dB) contradicts rejected=%d errors=%d over %d units",
				r.Stimulus, r.Fault, r.HasMargin, r.WorstMarginDB, r.Rejected, r.Errors, r.Units)
		}
	}
	return nil
}

// MergeCheckpoints folds shard checkpoints into the full detection matrix.
// Every plan cell must be covered exactly once across the inputs and every
// checkpoint must validate against the grid; the fold then sorts by name,
// so the merged matrix is byte-identical to the single-process run — the
// multi-process sharding contract the fleet tests pin.
func MergeCheckpoints(g Grid, cks ...*Checkpoint) (*DetectionMatrix, error) {
	p, err := NewPlan(g)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(p.Cells))
	var cells []CellResult
	for _, ck := range cks {
		if err := ck.Validate(p); err != nil {
			return nil, err
		}
		for _, r := range ck.Cells {
			key := r.Key()
			if seen[key] {
				return nil, fmt.Errorf("campaign: merge: cell %s/%s covered twice", r.Stimulus, r.Fault)
			}
			seen[key] = true
			cells = append(cells, r)
		}
	}
	if len(cells) != len(p.Cells) {
		return nil, fmt.Errorf("campaign: merge: %d of %d cells covered", len(cells), len(p.Cells))
	}
	return p.Fold(cells), nil
}
