package core

import "testing"

// UnitDecisionGap builds cfg's unit, acquires its captures and runs the
// estimate stage with every cost evaluation recorded. It returns the
// smallest relative accept/halve gap of the descent (minDecisionGap) and
// the number of comparisons it made.
func UnitDecisionGap(t *testing.T, cfg Config) (gap float64, comparisons int) {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setB, setB1, _, err := b.acquire()
	if err != nil {
		t.Fatal(err)
	}
	res, probes := estimateRecorded(t, b, setB, setB1)
	return minDecisionGap(t, res, probes), res.CostEvals - 2
}
