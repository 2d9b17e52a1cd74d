// Package par is the repository's bounded parallel-execution layer: a
// worker-count-capped fan-out with deterministic result ordering, used by
// the skew/pnbs hot path (dual-rate cost, reconstruction instants) and by
// every experiment runner with independent sweep points, traces, or units.
//
// Determinism contract: For/MapErr assign results by index, so the
// output of a call never depends on goroutine scheduling or on the worker
// count. Callers that reduce (e.g. the cost function's mean square) write
// per-index partials and fold them serially in index order, which keeps
// results bit-identical at any pool size — the property the differential
// tests in skew and pnbs assert.
package par

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Pool instruments: dispatch volume plus live/peak worker occupancy. The
// gauge moves once per spawned worker goroutine (not per item), so the
// per-item fan-out cost is untouched; inline runs are counted separately
// so "how often did the pool degenerate to serial" is visible.
var (
	mForCalls  = obs.C("par.for.calls")
	mForTasks  = obs.C("par.for.tasks")
	mForInline = obs.C("par.for.inline")
	mActive    = obs.G("par.workers.active")
)

// workerOverride holds the SetWorkers value; 0 means "use the default".
var workerOverride atomic.Int64

func init() {
	// BIST_WORKERS overrides the pool width for the whole process without a
	// code change (ops knob; GOMAXPROCS still bounds real parallelism).
	if s := os.Getenv("BIST_WORKERS"); s != "" {
		n, warn := parseWorkersEnv(s)
		if warn != "" {
			fmt.Fprintln(os.Stderr, "par: BIST_WORKERS:", warn)
		}
		if n > 0 {
			workerOverride.Store(int64(n))
		}
	}
}

// parseWorkersEnv interprets a BIST_WORKERS value under the same cap that
// SetWorkers enforces. It returns the override to apply (0 = leave the
// default active) and a warning for values that are unparseable or out of
// range — the env path must not silently accept what the API would reject,
// and must not silently ignore what the operator clearly meant as a knob.
func parseWorkersEnv(s string) (n int, warn string) {
	v, err := strconv.Atoi(s)
	switch {
	case err != nil:
		return 0, fmt.Sprintf("unparseable value %q ignored (want an integer)", s)
	case v <= 0:
		return 0, fmt.Sprintf("non-positive value %d ignored (using the default of min(GOMAXPROCS, NumCPU))", v)
	case v > maxWorkers:
		return maxWorkers, fmt.Sprintf("value %d above the %d cap, clamped", v, maxWorkers)
	}
	return v, ""
}

// maxWorkers is a sanity cap on explicit overrides: far above any real
// machine, low enough to keep a typo from spawning millions of goroutines.
// Both SetWorkers and the BIST_WORKERS env path enforce it.
const maxWorkers = 1024

// Workers returns the pool width used by For/MapErr: the SetWorkers (or
// BIST_WORKERS) override if present, else min(GOMAXPROCS, NumCPU).
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkers overrides the pool width and returns the previous override
// (0 if the default was active). n <= 0 restores the default; n is capped
// at 1024. Values above GOMAXPROCS add concurrency but not parallelism,
// which is exactly what the race-detector tests use on small machines.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	if n > maxWorkers {
		n = maxWorkers
	}
	return int(workerOverride.Swap(int64(n)))
}

// For calls fn(i) for every i in [0, n) across at most Workers()
// goroutines and returns when all calls complete. With one worker (or one
// item) it runs inline with no goroutine overhead. A panic in any fn is
// re-raised in the caller after the remaining workers drain.
func For(n int, fn func(i int)) {
	w := account(n, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	run(n, w, func(_ int, p *pool) {
		for i, ok := p.claim(); ok; i, ok = p.claim() {
			fn(i)
		}
	})
}

// account records one fan-out of n items in the pool counters and returns
// the number of workers to start for its parts independently claimable
// pieces (the items themselves, or ForChunks' chunks). A result of at most
// one means the caller runs the pieces inline, which is counted as such.
// A negative n counts as zero items, so par.for.tasks never decreases.
func account(n, parts int) int {
	mForCalls.Inc()
	mForTasks.Add(int64(max(n, 0)))
	w := min(Workers(), parts)
	if w <= 1 {
		mForInline.Inc()
	}
	return w
}

// pool is the state the workers of one fan-out share: a work-stealing
// claim counter over [0, tasks) and the first panic any task raised.
type pool struct {
	tasks  int
	next   atomic.Int64
	abort  atomic.Bool
	wg     sync.WaitGroup
	mu     sync.Mutex
	panicV any
}

// claim hands out the next unclaimed task index; ok is false once every
// task is claimed or a worker has panicked.
func (p *pool) claim() (k int, ok bool) {
	if p.abort.Load() {
		return 0, false
	}
	k = int(p.next.Add(1)) - 1
	return k, k < p.tasks
}

// capture is deferred by every worker: it keeps the first panic and stops
// further claims, so the remaining workers drain quickly.
func (p *pool) capture() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if p.panicV == nil {
			p.panicV = r
		}
		p.mu.Unlock()
		p.abort.Store(true)
	}
}

// run is the one scheduling loop behind For, ForCtx and ForChunks: it
// starts w goroutines, each running worker(slot, p) to claim and execute
// tasks of [0, tasks) until none remain, and returns when all have
// finished. A panic in any worker is re-raised in the caller after the
// others drain.
func run(tasks, w int, worker func(slot int, p *pool)) {
	p := &pool{tasks: tasks}
	p.wg.Add(w)
	for g := 0; g < w; g++ {
		go func(slot int) {
			mActive.Add(1)
			defer mActive.Add(-1)
			defer p.wg.Done()
			defer p.capture()
			worker(slot, p)
		}(g)
	}
	p.wg.Wait()
	if p.panicV != nil {
		panic(fmt.Sprintf("par: worker panic: %v", p.panicV))
	}
}

// Trace span names, interned once. Worker spans land on shared named
// display tracks ("par.worker.NN"), so a Perfetto capture shows one row per
// pool slot with the tasks that ran on it stacked beneath.
var (
	tnWorker = trace.Intern("par.worker")
	tnTask   = trace.Intern("par.task")
)

// ForCtx is For with trace attribution: while a recording is active each
// pool slot runs under a "par.worker" span on its own display row and each
// item under a "par.task" child span carrying its index. With tracing
// disabled it is exactly For — same pool, same counters, no added
// allocations — so hot paths can adopt it without a benchmark penalty.
//
// Task-to-worker assignment is scheduling-dependent, which is why par.*
// spans are excluded from the normalized (golden-pinned) trace form and
// exist only for the timeline view.
func ForCtx(tc trace.Ctx, n int, fn func(i int)) {
	if !trace.Enabled() {
		For(n, fn)
		return
	}
	forTraced(tc, n, func(_ trace.Ctx, i int) { fn(i) })
}

// forTraced is For with span instrumentation; fn receives the "par.task"
// span's context so callees can nest their own spans on the worker's
// display row. It is a separate entry (rather than a hook inside For) so
// the untraced path keeps its exact allocation profile.
func forTraced(tc trace.Ctx, n int, fn func(taskCtx trace.Ctx, i int)) {
	runTask := func(wc trace.Ctx, i int) {
		sp := trace.Start(wc, tnTask)
		sp.SetInt("i", int64(i))
		defer sp.End()
		fn(sp.Ctx(), i)
	}
	w := account(n, n)
	if w <= 1 {
		ws := trace.StartOnTrack("par.worker.00", tc, tnWorker)
		wc := ws.Ctx()
		for i := 0; i < n; i++ {
			runTask(wc, i)
		}
		ws.End()
		return
	}
	run(n, w, func(slot int, p *pool) {
		ws := trace.StartOnTrack(fmt.Sprintf("par.worker.%02d", slot), tc, tnWorker)
		defer ws.End()
		wc := ws.Ctx()
		for i, ok := p.claim(); ok; i, ok = p.claim() {
			runTask(wc, i)
		}
	})
}

// MapErrCtx is MapErr with trace attribution (see ForCtx). fn receives the
// item's "par.task" span context — Root while tracing is disabled — so
// traced callees nest under the worker row that actually ran them.
func MapErrCtx[T any](tc trace.Ctx, n int, fn func(taskCtx trace.Ctx, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if !trace.Enabled() {
		For(n, func(i int) { out[i], errs[i] = fn(trace.Root, i) })
	} else {
		forTraced(tc, n, func(taskCtx trace.Ctx, i int) { out[i], errs[i] = fn(taskCtx, i) })
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MapErr evaluates fn over [0, n) on the pool. It returns the results in
// index order, or the error of the lowest-index failing call.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	For(n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
