package skew

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/pnbs"
)

// relDiff returns |a-b| / max(|a|, |b|, tiny).
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-300 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestCostParallelMatchesSerialReference is the differential guarantee of
// the acceptance criteria: the per-candidate kernel pair + parallel fused
// Cost path must agree with the seed's rebuild-everything serial path to 1e-9
// relative (the estimate-stage tolerance contract; observed agreement is
// ~1e-12), at every pool size.
func TestCostParallelMatchesSerialReference(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	dHats := []float64{50e-12, 120e-12, 180e-12, 240e-12, 400e-12}
	for _, w := range []int{1, 4} {
		prev := par.SetWorkers(w)
		for _, dHat := range dHats {
			got, err := ce.Cost(dHat)
			if err != nil {
				par.SetWorkers(prev)
				t.Fatal(err)
			}
			ref, err := ce.costSerial(dHat)
			if err != nil {
				par.SetWorkers(prev)
				t.Fatal(err)
			}
			if rd := relDiff(got, ref); rd > 1e-9 {
				par.SetWorkers(prev)
				t.Fatalf("workers=%d dHat=%g: parallel %g vs serial %g (rel %g)", w, dHat, got, ref, rd)
			}
		}
		par.SetWorkers(prev)
	}
}

// TestCostRepeatedCallsIdentical: Cost must be a pure function of dHat —
// the evaluator's immutable tables carry no state between candidate delays.
func TestCostRepeatedCallsIdentical(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	first := make(map[float64]float64)
	for _, dHat := range []float64{100e-12, 180e-12, 300e-12} {
		v, err := ce.Cost(dHat)
		if err != nil {
			t.Fatal(err)
		}
		first[dHat] = v
	}
	// Revisit in a different order, twice, after the tables are warm.
	for i := 0; i < 2; i++ {
		for _, dHat := range []float64{300e-12, 100e-12, 180e-12} {
			v, err := ce.Cost(dHat)
			if err != nil {
				t.Fatal(err)
			}
			if v != first[dHat] {
				t.Fatalf("pass %d dHat %g: %g != first %g", i, dHat, v, first[dHat])
			}
		}
	}
}

// TestCostConcurrentCallers drives Cost from many goroutines at once (the
// shape RunFig6's parallel traces produce) under the race detector.
func TestCostConcurrentCallers(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	dHats := []float64{60e-12, 140e-12, 180e-12, 220e-12, 300e-12, 380e-12}
	want := make([]float64, len(dHats))
	for i, d := range dHats {
		v, err := ce.Cost(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4*len(dHats))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, d := range dHats {
				v, err := ce.Cost(d)
				if err != nil {
					errc <- err
					return
				}
				if v != want[i] {
					errc <- errDiff{d, v, want[i]}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

type errDiff struct{ d, got, want float64 }

func (e errDiff) Error() string { return "concurrent cost mismatch" }

func TestCostCurveParallelMatchesSerial(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	refDs := make([]float64, 15)
	refCosts := make([]float64, 15)
	dLo, dHi := 120e-12, 260e-12
	for i := range refDs {
		refDs[i] = dLo + (dHi-dLo)*float64(i)/float64(len(refDs)-1)
		v, err := ce.costSerial(refDs[i])
		if err != nil {
			refCosts[i] = math.NaN()
			continue
		}
		refCosts[i] = v
	}
	prev := par.SetWorkers(4)
	ds, costs := CostCurve(trace.Root, ce, dLo, dHi, 15)
	par.SetWorkers(prev)
	for i := range ds {
		if ds[i] != refDs[i] {
			t.Fatalf("grid mismatch at %d: %g vs %g", i, ds[i], refDs[i])
		}
		if math.IsNaN(costs[i]) != math.IsNaN(refCosts[i]) {
			t.Fatalf("NaN mismatch at %d", i)
		}
		if !math.IsNaN(costs[i]) && relDiff(costs[i], refCosts[i]) > 1e-9 {
			t.Fatalf("point %d: %g vs %g", i, costs[i], refCosts[i])
		}
	}
}

func TestMultiCostParallelMatchesSerial(t *testing.T) {
	d := 180e-12
	bandB, bandB1 := paperBands()
	var evals []*CostEvaluator
	for k := 0; k < 3; k++ {
		setB := idealSet(bandB, 0, d, 220)
		setB1 := idealSet(bandB1, -300e-9, d, 130)
		times := RandomTimes(470e-9, 1700e-9, 100, int64(k+1))
		ce, err := NewCostEvaluator(setB, setB1, times, pnbs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, ce)
	}
	mc, err := NewMultiCost(evals)
	if err != nil {
		t.Fatal(err)
	}
	for _, dHat := range []float64{100e-12, 180e-12, 250e-12} {
		// Serial reference: mean of the per-capture serial costs.
		acc := 0.0
		for _, e := range evals {
			v, err := e.costSerial(dHat)
			if err != nil {
				t.Fatal(err)
			}
			acc += v
		}
		ref := acc / float64(len(evals))
		prev := par.SetWorkers(4)
		got, err := mc.Cost(dHat)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if rd := relDiff(got, ref); rd > 1e-9 {
			t.Fatalf("dHat %g: multi-cost %g vs serial %g (rel %g)", dHat, got, ref, rd)
		}
	}
}
