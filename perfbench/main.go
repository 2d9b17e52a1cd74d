// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process against the program's public API:
//
//	unit-paper    core.New + BIST.Run of paper-size units, one caller
//	lot-campaign  campaign.Plan.RunCell over the par pool, as Grid.Run does
//	fleet-stream  campaigns through fleet.Server over loopback HTTP
//
// Each run builds a fixed op list from -seed (whole passes, no deadline:
// every run of a seed executes the identical ops), warms every op kind
// once, times the ops with tracing and metrics off, checks every op's
// output, and prints one JSON object as its last line. -trace 1 replaces
// the end-to-end metrics with the per-layer ones, taken from a traced
// re-run plus kernel timings. DESIGN.md in this directory maps each
// per-layer metric to the end-to-end metric it should move.
//
// Run it from the repository root:
//
//	python3 perfbench/run.py --workload unit-paper --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: package initialisation runs before main, so
// this is as close to process start as the program can observe.
var processStart = time.Now()

// setupSamples is how many fresh processes set-up time is measured in (this
// one plus setupSamples-1 set-up-only children); the median is reported.
const setupSamples = 5

// opStat is one timed op.
type opStat struct {
	// kind is the op's class for the percentile checks: the fault a unit
	// or cell carries, or "campaign".
	kind string
	// stimulus is a campaign cell's stimulus (empty otherwise).
	stimulus string
	// ms is the op's wall latency; firstMS the time from its start to its
	// first unit verdict.
	ms, firstMS float64
	// units is the number of BIST units the op completed.
	units  int
	failed bool
}

// bench is one workload bound to a seed and a run length. Its op list is
// fixed at construction and split into passes; every pass has the same
// per-kind op counts.
type bench interface {
	// setup builds every input and runs one warm-up op of each kind.
	setup() error
	passes() int
	// runPass executes pass p. A non-nil error is a pass-level output check
	// that failed (op-level failures are flagged in the stats).
	runPass(p int) ([]opStat, error)
	// layers adds the workload's own per-layer metrics; plain holds the
	// stats of the traced run's untraced half.
	layers(m metrics, plain []opStat) error
	// probe returns unit configurations taken from the workload's first op,
	// for the kernel tier of the traced run.
	probe() ([]probeUnit, error)
	close()
}

type workload struct {
	name string
	make func(seed int64, seconds int) bench
}

var workloads = []workload{
	{"unit-paper", newUnitBench},
	{"lot-campaign", newLotBench},
	{"fleet-stream", newFleetBench},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: unit-paper, lot-campaign or fleet-stream")
	seed := fs.Int64("seed", 1, "seed the op list is generated from")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase; sets the number of passes")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	setupOnly := fs.Bool("setup-only", false, "build and warm the workload, print its set-up seconds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (unit-paper|lot-campaign|fleet-stream), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	b := wl.make(*seed, *seconds)
	defer b.close()
	if err := b.setup(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", wl.name, err)
		return 1
	}
	setupS := time.Since(processStart).Seconds()
	if *setupOnly {
		fmt.Fprintf(stdout, "setup_s %v\n", setupS)
		return 0
	}
	canaryBefore := canary()

	var res result
	var err error
	if *traced == 1 {
		res, err = layerRun(b, stderr)
	} else {
		res, err = timedRun(b, setupS, args, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	// The canary is a diagnostic, never a metric: a single-threaded loop
	// that does not touch the program, timed before and after the run, so a
	// reader can tell a slow host period from a regression.
	fmt.Fprintf(stdout, "canary_ms before=%.3f after=%.3f\n", canaryBefore, canary())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runPasses executes passes [lo, hi) and returns their stats plus the
// timed wall clock. A failed pass-level check marks the run incorrect.
func runPasses(b bench, lo, hi int, stderr io.Writer) (stats []opStat, wall time.Duration, ok bool) {
	ok = true
	t0 := time.Now()
	for p := lo; p < hi; p++ {
		st, err := b.runPass(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: pass %d: %v\n", p, err)
			ok = false
		}
		stats = append(stats, st...)
	}
	return stats, time.Since(t0), ok
}

func countFailed(stats []opStat) (failed, units int) {
	for _, s := range stats {
		if s.failed {
			failed++
		}
		units += s.units
	}
	return failed, units
}

// timedRun is the end-to-end run: every pass, tracing and metrics off.
func timedRun(b bench, setupS float64, args []string, stderr io.Writer) (result, error) {
	stats, wall, ok := runPasses(b, 0, b.passes(), stderr)
	failed, units := countFailed(stats)
	lat := make([]float64, len(stats))
	first := make([]float64, len(stats))
	for i, s := range stats {
		lat[i], first[i] = s.ms, s.firstMS
	}
	steadiness(stats, stderr)

	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	setups := []float64{setupS}
	for i := 1; i < setupSamples; i++ {
		s, err := childSetup(args)
		if err != nil {
			return result{}, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		setups = append(setups, s)
	}
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("op_ms_p50", median(lat), "ms")
	m.set("op_ms_p95", quantile(lat, 0.95), "ms")
	m.set("units_per_s", float64(units)/wall.Seconds(), "1/s")
	m.set("peak_rss_mb", rss, "MB")
	m.set("first_verdict_ms", median(first), "ms")
	return result{Correct: ok && failed == 0, Attempted: len(stats), Failed: failed, Metrics: m}, nil
}

// steadiness prints, as a diagnostic, how many ops each reported
// percentile rests on and how far its rank sits from a boundary between op
// kinds (see classMargin).
func steadiness(stats []opStat, w io.Writer) {
	weights := map[string]int{}
	byKind := map[string][]float64{}
	for _, s := range stats {
		weights[s.kind]++
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	p50 := map[string]float64{}
	kinds := make([]string, 0, len(byKind))
	for k, xs := range byKind {
		p50[k] = median(xs)
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return p50[kinds[i]] < p50[kinds[j]] })
	var sb strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&sb, " %s=%.1fx%d", k, p50[k], weights[k])
	}
	fmt.Fprintf(w, "perfbench: kind p50 ms x ops:%s\n", sb.String())
	for _, q := range []float64{0.5, 0.95} {
		fmt.Fprintf(w, "perfbench: p%g rests on %d ops beyond it, %.3f of the ops from a kind boundary\n",
			100*q, beyond(len(stats), q), classMargin(weights, p50, q))
	}
}

// childSetup measures set-up time in a fresh process of this program.
func childSetup(args []string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, append(append([]string(nil), args...), "-setup-only")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(out))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("unexpected set-up output %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// canary times a fixed single-threaded arithmetic loop that shares no code
// with the program, in milliseconds.
func canary() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc = acc*0.999999 + float64(x>>40)
	}
	canarySink = acc
	return float64(time.Since(t0).Microseconds()) / 1e3
}

var canarySink float64
