package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
)

// opList describes a workload's op list for a seed and run length: one
// kind label and one input fingerprint per op.
func opList(t *testing.T, workload string, seed int64, seconds int) (kinds, inputs []string) {
	t.Helper()
	switch workload {
	case "unit-paper":
		faults := unitKinds()
		for _, op := range unitOps(seconds) {
			cfg := unitConfig(faults, seed, op)
			kinds = append(kinds, faults[op.Kind].Name)
			inputs = append(inputs, fmt.Sprintf("%d %d %d %g %g %g %g %g %v",
				op.Unit, cfg.Seed, cfg.TimesSeed, cfg.TI.DCDE.Bias,
				cfg.TI.Ch0.Gain, cfg.TI.Ch1.Gain, cfg.TI.Ch0.Offset, cfg.TI.Ch1.Offset, cfg.Tx.IQ))
		}
	case "lot-campaign":
		for p := 0; p < lotPasses(seconds); p++ {
			plan, err := campaign.NewPlan(lotGrid(seed, p))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range plan.Cells {
				kinds = append(kinds, c.Fault.Name)
				inputs = append(inputs, fmt.Sprint(p, c.Stimulus.Name, c.Seed))
			}
		}
	case "fleet-stream":
		for i := 0; i < fleetCampaigns(seconds); i++ {
			b, err := json.Marshal(fleetSpec(seed, i))
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, "campaign")
			inputs = append(inputs, string(b))
		}
	default:
		t.Fatalf("unknown workload %s", workload)
	}
	return kinds, inputs
}

// runSeconds reads the run length the benchmark is driven with and checks
// that BENCHMARK.json names only workloads the program has.
func runSeconds(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	return cfg.RunSeconds
}

func TestSameSeedSameOpList(t *testing.T) {
	for _, w := range workloads {
		k1, in1 := opList(t, w.name, 7, 20)
		k2, in2 := opList(t, w.name, 7, 20)
		if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(in1, in2) {
			t.Errorf("%s: seed 7 built two different op lists", w.name)
		}
	}
}

func TestOtherSeedOtherInputsSameKinds(t *testing.T) {
	count := func(kinds []string) map[string]int {
		m := map[string]int{}
		for _, k := range kinds {
			m[k]++
		}
		return m
	}
	for _, w := range workloads {
		k1, in1 := opList(t, w.name, 7, 20)
		k2, in2 := opList(t, w.name, 8, 20)
		if !reflect.DeepEqual(count(k1), count(k2)) {
			t.Errorf("%s: per-kind op counts differ between seeds", w.name)
		}
		same := 0
		for i := range in1 {
			if in1[i] == in2[i] {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of %d ops have the same inputs under seeds 7 and 8", w.name, same, len(in1))
		}
	}
}

// Every pass of a workload carries the same per-kind counts, so where a
// percentile falls in the kind mix does not depend on the run length.
func TestPassesHaveEqualKindCounts(t *testing.T) {
	for _, w := range workloads {
		kinds, _ := opList(t, w.name, 7, 20)
		passes := w.make(7, 20).passes()
		per := len(kinds) / passes
		if per*passes != len(kinds) {
			t.Fatalf("%s: %d ops do not split into %d passes", w.name, len(kinds), passes)
		}
		want := map[string]int{}
		for _, k := range kinds[:per] {
			want[k]++
		}
		for p := 1; p < passes; p++ {
			got := map[string]int{}
			for _, k := range kinds[p*per : (p+1)*per] {
				got[k]++
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: pass %d kind counts %v, want %v", w.name, p, got, want)
			}
		}
	}
}

func TestTenOpsBeyondP95(t *testing.T) {
	for _, seconds := range []int{1, runSeconds(t)} {
		for _, w := range workloads {
			kinds, _ := opList(t, w.name, 1, seconds)
			if n := beyond(len(kinds), 0.95); n < 10 {
				t.Errorf("%s at %d s: %d ops, only %d beyond p95", w.name, seconds, len(kinds), n)
			}
		}
	}
}

// minClassMargin is the least share of the ops allowed between a reported
// percentile's rank and a boundary between well-separated op kinds.
const minClassMargin = 0.02

// The reported percentiles must not sit on a boundary between op kinds
// whose latencies are well apart. Per-kind latencies are measured on one
// pass of each workload at its real size; the boundaries come from the kind
// mix of the full op list.
func TestPercentilesAvoidKindBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("measures paper-size units")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := w.make(1, 1)
			defer b.close()
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			stats, err := b.runPass(0)
			if err != nil {
				t.Fatal(err)
			}
			byKind := map[string][]float64{}
			for _, s := range stats {
				if s.failed {
					t.Fatalf("%s op failed", s.kind)
				}
				byKind[s.kind] = append(byKind[s.kind], s.ms)
			}
			p50 := map[string]float64{}
			for k, xs := range byKind {
				p50[k] = median(xs)
			}
			kinds, _ := opList(t, w.name, 1, runSeconds(t))
			weights := map[string]int{}
			for _, k := range kinds {
				weights[k]++
			}
			for _, q := range []float64{0.5, 0.95} {
				if m := classMargin(weights, p50, q); m < minClassMargin {
					t.Errorf("p%g sits %.3f of the ops from a kind boundary (kind p50s %v)", 100*q, m, p50)
				}
			}
		})
	}
}

// The traced run prints exactly the per-layer metrics BENCHMARK.json
// declares, with the same units.
func TestLayerNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var declared, printed [][2]string
	for _, m := range cfg.PerLayer {
		declared = append(declared, [2]string{m.Name, m.Unit})
	}
	printed = append(printed, layerNames...)
	if !reflect.DeepEqual(declared, printed) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram prints %v", declared, printed)
	}
}

func TestQuantileAndBeyond(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %g, want 4.8", got)
	}
	if got := beyond(200, 0.95); got != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", got)
	}
}

func TestClassMargin(t *testing.T) {
	weights := map[string]int{"fast": 9, "slow": 1}
	p50 := map[string]float64{"fast": 10, "slow": 30}
	if got := classMargin(weights, p50, 0.9); got != 0 {
		t.Errorf("p90 on the fast/slow boundary: margin %g, want 0", got)
	}
	if got := classMargin(weights, p50, 0.95); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("p95 inside the slow kind: margin %g, want 0.05", got)
	}
	p50["slow"] = 10.5 // within classGap: the boundary does not count
	if got := classMargin(weights, p50, 0.9); !math.IsInf(got, 1) {
		t.Errorf("overlapping kinds: margin %g, want +Inf", got)
	}
}

// campaignBase must track the campaign engine's scaling; cellProbe's
// verdict check catches drift at the workloads' scale, and this pins the
// paper-size end against PaperScenario.
func TestCampaignBaseAtFullScale(t *testing.T) {
	got, want := campaignBase(1), core.PaperScenario()
	if got.CaptureLen != want.CaptureLen || got.NTimes != want.NTimes || got.PSDLen != 2048 || got.SegLen != 512 {
		t.Errorf("campaignBase(1) = capture %d, times %d, psd %d, seg %d", got.CaptureLen, got.NTimes, got.PSDLen, got.SegLen)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "unit-paper", "-trace", "2"},
		{"-workload", "unit-paper", "-seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}
