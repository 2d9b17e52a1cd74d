package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// unitPassSlots is one pass of unit-paper: an index into unitKinds per op.
// Healthy units run twice per pass so that neither p50 nor p95 lands on a
// boundary between kinds whose latencies are well apart (see classMargin
// and the steadiness tests).
var unitPassSlots = []int{0, 1, 2, 3, 0, 4, 5, 6, 7, 8, 9}

// unitPassSeconds is the nominal length of one pass on a 2-vCPU host; the
// pass count is seconds / unitPassSeconds, fixed before anything is timed.
const unitPassSeconds = 0.48

// unitMinPasses keeps at least ten ops beyond p95.
const unitMinPasses = 20

// unitOp is one paper-size unit: a kind (healthy or a base-catalogue
// fault) and a unit index into the process-spread draw.
type unitOp struct {
	Kind int
	Unit int
}

// unitKinds returns healthy followed by the base fault catalogue.
func unitKinds() []core.Fault {
	return append([]core.Fault{{Name: "healthy"}}, core.Catalog()...)
}

func unitPasses(seconds int) int {
	return max(unitMinPasses, int(math.Ceil(float64(seconds)/unitPassSeconds)))
}

// unitOps is unit-paper's op list for a run of the given length. Unit
// indices are distinct across ops, so every op is a different device.
func unitOps(seconds int) []unitOp {
	var ops []unitOp
	for p := 0; p < unitPasses(seconds); p++ {
		for _, k := range unitPassSlots {
			ops = append(ops, unitOp{Kind: k, Unit: len(ops)})
		}
	}
	return ops
}

// unitConfig derives an op's device: the paper scenario with the seed's
// process-spread draw for its unit index, then its fault.
func unitConfig(kinds []core.Fault, seed int64, op unitOp) core.Config {
	cfg := core.UnitConfig(core.PaperScenario(), core.TypicalSpread(), seed, op.Unit)
	if f := kinds[op.Kind]; f.Apply != nil {
		f.Apply(&cfg)
	}
	return cfg
}

type unitBench struct {
	seed  int64
	kinds []core.Fault
	ops   []unitOp
	cfgs  []core.Config
}

func newUnitBench(seed int64, seconds int) bench {
	return &unitBench{seed: seed, ops: unitOps(seconds)}
}

// spareUnit returns a device past every timed unit index, so it shares no
// per-device memo entry with a timed op.
func (b *unitBench) spareUnit(kind, i int) (core.Config, bool) {
	op := unitOp{Kind: kind, Unit: len(b.ops) + i}
	return unitConfig(b.kinds, b.seed, op), !b.kinds[kind].ShouldFail
}

func (b *unitBench) setup() error {
	b.kinds = unitKinds()
	b.cfgs = make([]core.Config, len(b.ops))
	for i, op := range b.ops {
		b.cfgs[i] = unitConfig(b.kinds, b.seed, op)
	}
	for k := range b.kinds {
		cfg, _ := b.spareUnit(k, k)
		if st := b.runUnit(cfg, k); st.failed {
			return fmt.Errorf("warm-up unit %s failed its verdict check", b.kinds[k].Name)
		}
	}
	return nil
}

func (b *unitBench) passes() int { return len(b.ops) / len(unitPassSlots) }

func (b *unitBench) runPass(p int) ([]opStat, error) {
	n := len(unitPassSlots)
	stats := make([]opStat, 0, n)
	for i := p * n; i < (p+1)*n; i++ {
		stats = append(stats, b.runUnit(b.cfgs[i], b.ops[i].Kind))
	}
	return stats, nil
}

// runUnit runs one unit and checks its verdict against its fault's
// ShouldFail.
func (b *unitBench) runUnit(cfg core.Config, kind int) opStat {
	f := b.kinds[kind]
	st := opStat{kind: f.Name, failed: true}
	t0 := time.Now()
	bist, err := core.New(cfg)
	if err != nil {
		return st
	}
	rep, err := bist.Run()
	st.ms = msSince(t0)
	st.firstMS = st.ms
	if err != nil {
		return st
	}
	st.units = 1
	st.failed = rep.Pass == f.ShouldFail
	return st
}

func (b *unitBench) layers(m metrics, plain []opStat) error { return nil }

// probe returns one fresh device of each kind, starting with the first
// op's kind.
func (b *unitBench) probe() ([]probeUnit, error) {
	var out []probeUnit
	for i := range b.kinds {
		k := (b.ops[0].Kind + i) % len(b.kinds)
		cfg, pass := b.spareUnit(k, len(b.kinds)+i)
		out = append(out, probeUnit{cfg: cfg, pass: pass})
	}
	return out, nil
}

func (b *unitBench) close() {}
