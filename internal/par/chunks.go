package par

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
	if chunk <= 0 {
		chunk = 256
	}
	nc := (n + chunk - 1) / chunk
	w := account(n, nc)
	if w <= 1 {
		for lo := 0; lo < n; lo += chunk {
			fn(lo, min(lo+chunk, n))
		}
		return
	}
	run(nc, w, func(_ int, p *pool) {
		for ci, ok := p.claim(); ok; ci, ok = p.claim() {
			lo := ci * chunk
			fn(lo, min(lo+chunk, n))
		}
	})
}
