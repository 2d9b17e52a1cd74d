package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs/trace"
)

func TestForCtxDisabledMatchesFor(t *testing.T) {
	if trace.Enabled() {
		t.Fatal("a recording is active")
	}
	var sum atomic.Int64
	ForCtx(trace.Root, 100, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if got := sum.Load(); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
}

// TestForCtxTracedCoversAllIndicesOnWorkerRows: a traced fan-out runs
// every index once and opens one par.task span per chunk, each under a
// par.worker span on its own display row.
func TestForCtxTracedCoversAllIndicesOnWorkerRows(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	for _, tc := range []struct{ n, chunk, tasks int }{
		{64, 1, 64},
		{64, 8, 8},
		{70, 16, 5},
	} {
		if err := trace.StartRecording(trace.Config{}); err != nil {
			t.Fatal(err)
		}
		seen := make([]atomic.Int32, tc.n)
		root := trace.Start(trace.Root, trace.Intern("test.dispatch"))
		ForCtx(root.Ctx(), tc.n, tc.chunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		root.End()
		rec := trace.StopRecording()
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d chunk=%d: index %d ran %d times", tc.n, tc.chunk, i, got)
			}
		}
		var workers, tasks int
		workerTracks := map[int32]bool{}
		for _, s := range rec.Spans {
			switch s.Name {
			case "par.worker":
				workers++
				workerTracks[s.Track] = true
				if got := rec.Tracks[s.Track]; !strings.HasPrefix(got, "par.worker.") {
					t.Errorf("worker span on track %q, want par.worker.NN", got)
				}
			case "par.task":
				tasks++
			}
		}
		if tasks != tc.tasks {
			t.Errorf("n=%d chunk=%d: recorded %d par.task spans, want %d", tc.n, tc.chunk, tasks, tc.tasks)
		}
		if workers < 1 || workers > 4 {
			t.Errorf("recorded %d par.worker spans, want 1..4", workers)
		}
		if len(workerTracks) != workers {
			t.Errorf("%d worker spans share %d tracks, want one row each", workers, len(workerTracks))
		}
	}
}

func TestForCtxTracedPanicPropagates(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	if err := trace.StartRecording(trace.Config{}); err != nil {
		t.Fatal(err)
	}
	defer trace.StopRecording()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not re-raised")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Errorf("panic value %v", r)
		}
	}()
	ForCtx(trace.Root, 8, 1, func(i, _ int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestMapErrCtx(t *testing.T) {
	out, err := MapErrCtx(trace.Root, 5, func(_ trace.Ctx, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
	sentinel := errors.New("bad")
	if _, err := MapErrCtx(trace.Root, 5, func(_ trace.Ctx, i int) (int, error) {
		if i >= 2 {
			return 0, sentinel
		}
		return i, nil
	}); !errors.Is(err, sentinel) {
		t.Errorf("error not propagated: %v", err)
	}
}
