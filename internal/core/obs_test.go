package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/testkit"
)

// The acceptance contract of the observability layer: the live cost-eval
// counter must agree exactly with the analytic count Algorithm 1 reports,
// i.e. the metrics are the truth, not an estimate of it.
func TestMetricsCostEvalCounterMatchesLMS(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	b, err := New(fastScenario())
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	obs.Reset()
	rep, err := b.Run()
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.Default().Snapshot()
	if got, want := snap.Counters["skew.cost.evals"], int64(rep.LMS.CostEvals); got != want {
		t.Errorf("skew.cost.evals counter %d, want LMSResult.CostEvals %d", got, want)
	}
	if got, want := snap.Counters["skew.cost.evals"], int64(rep.Compute.CostEvals); got != want {
		t.Errorf("skew.cost.evals counter %d, want ComputeBudget.CostEvals %d", got, want)
	}
	if snap.Counters["skew.cost.errors"] != 0 {
		t.Errorf("healthy run recorded %d cost errors", snap.Counters["skew.cost.errors"])
	}
	if snap.Counters["core.bist.runs"] != 1 {
		t.Errorf("run counter %d", snap.Counters["core.bist.runs"])
	}
	// Some logical evaluations are LMS memo hits (repeated candidates, no
	// kernel work); the rest run the kernel.
	if hits := snap.Counters["skew.lms.memo.hits"]; hits == 0 || hits >= int64(rep.LMS.CostEvals) {
		t.Errorf("memo hits %d of %d cost evals: memo instrumentation dead", hits, rep.LMS.CostEvals)
	}
	// Stage latency histograms saw exactly one run each.
	for _, stage := range []string{"acquire", "estimate", "reconstruct", "measure", "total"} {
		name := "core.stage." + stage + ".seconds"
		hv, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("missing stage histogram %s", name)
			continue
		}
		if hv.Count != 1 || hv.Sum <= 0 {
			t.Errorf("%s: count %d sum %g", name, hv.Count, hv.Sum)
		}
	}
}

// curatedMetrics extracts the deterministic slice of a snapshot: counters
// whose totals are fixed by the configuration (work dispatched, cache
// traffic, objective evaluations) plus stage-histogram observation counts.
// Deliberately excluded: wall-clock sums, worker occupancy and inline-run
// counts — all legitimately scheduling-dependent.
func curatedMetrics(s *obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, name := range []string{
		"core.bist.runs",
		"dsp.plan.builds",
		"dsp.plan.hits",
		"dsp.plan.misses",
		"par.for.calls",
		"par.for.tasks",
		"skew.cost.evals",
		"skew.cost.errors",
		"skew.lms.memo.hits",
	} {
		out[name] = s.Counters[name]
	}
	// The adccheck and truth stages pin at 0: a default run neither checks
	// its converters nor computes ground truth.
	for _, stage := range []string{"adccheck", "acquire", "estimate", "reconstruct", "measure", "truth", "total"} {
		name := "core.stage." + stage + ".seconds"
		out[name+".count"] = s.Histograms[name].Count
	}
	return out
}

// A BIST run's deterministic metrics must be identical at any worker count
// and from run to run — the same bit-invariance contract the pipeline
// results already honour, extended to the instrumentation — and are pinned
// to a committed golden vector. Two inputs: the fast test scenario and the
// paper-size unit, whose golden pins the work one BIST unit costs (cost
// evaluations, dispatched tasks, plan-cache traffic) exactly, so a work
// regression fails here rather than hiding in wall-clock noise.
func TestMetricsSnapshotDeterministicAcrossWorkers(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	for _, tc := range []struct {
		name, golden string
		cfg          Config
	}{
		{"fast", "testdata/golden/metrics.json", fastScenario()},
		{"paper", "testdata/golden/metrics_paper.json", PaperScenario()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				t.Helper()
				b, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.Run(); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the process-wide plan cache with collection off, so the
			// measured runs see a steady-state cache (all hits) regardless
			// of which tests ran first.
			run()

			var first []byte
			var last map[string]int64
			for _, w := range []int{1, 4} {
				prevW := par.SetWorkers(w)
				obs.Enable()
				obs.Reset()
				run()
				obs.Disable()
				par.SetWorkers(prevW)
				cur := curatedMetrics(obs.Default().Snapshot())
				enc, err := testkit.MarshalCanonical(cur)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = enc
				} else if !bytes.Equal(first, enc) {
					t.Errorf("metrics snapshot differs between worker counts:\nworkers=1:\n%s\nworkers=%d:\n%s", first, w, enc)
				}
				last = cur
			}
			if last["dsp.plan.misses"] != 0 {
				t.Errorf("steady-state run missed the plan cache %d times", last["dsp.plan.misses"])
			}
			if last["skew.cost.evals"] == 0 || last["par.for.calls"] == 0 {
				t.Error("curated snapshot recorded no work")
			}
			// Exact integers: zero tolerance.
			testkit.Golden(t, tc.golden, last, testkit.Options{})
		})
	}
}

// Enabling metrics must not change a single output bit of the pipeline.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	run := func() *Report {
		t.Helper()
		b, err := New(fastScenario())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	obs.Disable()
	off := run()
	obs.Enable()
	obs.Reset()
	on := run()
	obs.Disable()
	offJSON, err := testkit.MarshalCanonical(off)
	if err != nil {
		t.Fatal(err)
	}
	onJSON, err := testkit.MarshalCanonical(on)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offJSON, onJSON) {
		t.Error("report differs with metrics enabled")
	}
}

func init() {
	// Guard against a stray BIST_METRICS in the test environment skewing
	// the deterministic-snapshot golden.
	if obs.Enabled() {
		fmt.Println("core: obs tests assume metrics disabled at start; disabling")
		obs.Disable()
	}
}
