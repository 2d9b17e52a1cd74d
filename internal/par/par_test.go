package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestWorkersBounds(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("override not honoured: Workers() = %d", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("default restore broken: Workers() = %d", Workers())
	}
	SetWorkers(1 << 30)
	if Workers() != maxWorkers {
		t.Fatalf("cap not applied: Workers() = %d", Workers())
	}
}

func TestMapDeterministicOrdering(t *testing.T) {
	for _, w := range []int{1, 2, 7} {
		prev := SetWorkers(w)
		got, err := MapErr(100, func(i int) (int, error) { return i * i, nil })
		SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestForPoolSizeOneRunsInline(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	// Inline execution must preserve iteration order exactly.
	var order []int
	For(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order broken: %v", order)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	prev := SetWorkers(5)
	defer SetWorkers(prev)
	const n = 1000
	var counts [n]int64
	For(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForPanicPropagation(t *testing.T) {
	fanOuts := map[string]func(){
		"For": func() {
			For(50, func(i int) {
				if i == 13 {
					panic("boom")
				}
			})
		},
		"ForChunks": func() {
			ForChunks(500, 16, func(lo, _ int) {
				if lo == 160 {
					panic("boom")
				}
			})
		},
	}
	for name, fanOut := range fanOuts {
		for _, w := range []int{1, 4} {
			prev := SetWorkers(w)
			func() {
				defer SetWorkers(prev)
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s workers=%d: panic not propagated", name, w)
					}
					if w > 1 && !strings.Contains(fmt.Sprint(r), "boom") {
						t.Fatalf("%s workers=%d: panic value lost: %v", name, w, r)
					}
				}()
				fanOut()
			}()
		}
	}
}

func TestMapErr(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	want := errors.New("nope")
	if _, err := MapErr(20, func(i int) (int, error) {
		if i == 5 {
			return 0, want
		}
		return i, nil
	}); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
	out, err := MapErr(20, func(i int) (int, error) { return 2 * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// With two failures the lowest index wins, whatever the scheduling.
func TestMapErrReturnsLowestIndexError(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	_, err := MapErr(100, func(i int) (int, error) {
		if i == 80 || i == 17 {
			return 0, fmt.Errorf("fail at %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail at 17" {
		t.Fatalf("got %v, want the index-17 error", err)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	calls0, tasks0, inline0 := mForCalls.Value(), mForTasks.Value(), mForInline.Value()
	calls := 0
	For(0, func(int) { calls++ })
	For(-3, func(int) { calls++ })
	ForChunks(0, 16, func(int, int) { calls++ })
	ForChunks(-3, 16, func(int, int) { calls++ })
	if calls != 0 {
		t.Fatalf("fn called %d times for empty ranges", calls)
	}
	// par.for.tasks is exported as a Prometheus counter: an empty or
	// negative range adds no tasks and must never make it go down.
	if d := mForTasks.Value() - tasks0; d != 0 {
		t.Errorf("par.for.tasks moved by %d for empty ranges, want 0", d)
	}
	if d := mForCalls.Value() - calls0; d != 4 {
		t.Errorf("par.for.calls moved by %d, want 4", d)
	}
	if d := mForInline.Value() - inline0; d != 4 {
		t.Errorf("par.for.inline moved by %d, want 4 (empty ranges run inline)", d)
	}
}

// TestForChunksFixedBoundaries pins ForChunks' contract: every chunk runs
// exactly once with bounds that depend only on (n, chunk), at any worker
// count, and each call counts n tasks.
func TestForChunksFixedBoundaries(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	const n, chunk = 1000, 64
	for _, w := range []int{1, 2, 7} {
		prev := SetWorkers(w)
		tasks0 := mForTasks.Value()
		seen := make([]atomic.Int64, (n+chunk-1)/chunk)
		ForChunks(n, chunk, func(lo, hi int) {
			if lo%chunk != 0 || hi != min(lo+chunk, n) {
				t.Errorf("workers=%d: chunk [%d, %d) off the fixed grid", w, lo, hi)
			}
			seen[lo/chunk].Add(1)
		})
		SetWorkers(prev)
		for ci := range seen {
			if c := seen[ci].Load(); c != 1 {
				t.Fatalf("workers=%d: chunk %d ran %d times", w, ci, c)
			}
		}
		if d := mForTasks.Value() - tasks0; d != n {
			t.Errorf("workers=%d: par.for.tasks moved by %d, want %d", w, d, n)
		}
	}
}
