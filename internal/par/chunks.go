package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ForChunks calls fn(lo, hi) for consecutive FIXED-SIZE chunks of [0, n):
// [0,chunk), [chunk,2·chunk), ..., distributed over at most Workers()
// goroutines by work-stealing. The chunk boundaries are a pure function of
// (n, chunk), never of the worker count — so a caller that stores one
// partial result per chunk index and folds the partials serially in chunk
// order gets a total that is bit-identical at ANY pool size. That is the
// determinism contract of the fused cost kernel (and of any reassociated
// reduction built on this dispatcher).
//
// chunk <= 0 selects 256 items. The counters account one call and n tasks,
// like For: the unit of useful work is the item, not the chunk, so the
// curated metrics snapshot is unaffected by chunking choices. With one
// worker (or one chunk) the chunks run inline in order. A panic in any fn
// is re-raised in the caller after the remaining workers drain.
func ForChunks(n, chunk int, fn func(lo, hi int)) {
	mForCalls.Inc()
	mForTasks.Add(int64(n))
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 256
	}
	nc := (n + chunk - 1) / chunk
	w := Workers()
	if w > nc {
		w = nc
	}
	if w <= 1 {
		mForInline.Inc()
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	var (
		next    atomic.Int64
		abort   atomic.Bool
		panicMu sync.Mutex
		panicV  any
	)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			mActive.Add(1)
			defer mActive.Add(-1)
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
					abort.Store(true)
				}
			}()
			for !abort.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= nc {
					return
				}
				lo := ci * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(fmt.Sprintf("par: worker panic: %v", panicV))
	}
}
