package par

import (
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/eventlog"
)

// Queue instruments: submitted/completed volume plus the two gauges a
// fleet operator watches — how many jobs are parked in the buffer and how
// many workers are busy. Gauges carry high-water marks, so a snapshot
// shows peak backlog even after it drains.
var (
	mQueueJobs   = obs.C("par.queue.jobs")
	mQueueDone   = obs.C("par.queue.done")
	mQueueDepth  = obs.G("par.queue.depth")
	mQueueActive = obs.G("par.queue.active")
)

// Queue is a bounded FIFO job queue with a fixed worker pool: the
// long-running sibling of For. Where For fans out a known index range and
// returns, a Queue accepts work for the life of a service — Submit blocks
// when the buffer is full (backpressure, never unbounded memory), workers
// drain in arrival order, and Close waits for everything in flight. A
// panic in a job is recovered, counted, and reported as a par.queue.panic
// event rather than killing the worker: one poisonous campaign cell must
// not take the fleet down.
type Queue struct {
	ch      chan func()
	wg      sync.WaitGroup
	workers int

	mu     sync.Mutex
	closed bool

	// active/done are queue-local (not obs-gated) so health sampling —
	// the fleet watchdog — sees the truth even when metrics are disabled.
	active atomic.Int64
	done   atomic.Int64
}

// NewQueue starts a queue with the given worker count and buffer depth.
// workers <= 0 selects Workers() (the pool default, BIST_WORKERS-aware)
// and is clamped to the same cap as SetWorkers; depth <= 0 selects twice
// the worker count.
func NewQueue(workers, depth int) *Queue {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > maxWorkers {
		workers = maxWorkers
	}
	if depth <= 0 {
		depth = 2 * workers
	}
	q := &Queue{ch: make(chan func(), depth), workers: workers}
	for g := 0; g < workers; g++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for job := range q.ch {
		mQueueDepth.Add(-1)
		mQueueActive.Add(1)
		q.active.Add(1)
		q.runJob(job)
		q.active.Add(-1)
		q.done.Add(1)
		mQueueActive.Add(-1)
		mQueueDone.Inc()
	}
}

// runJob isolates the recover so the worker loop survives a panicking job.
func (q *Queue) runJob(job func()) {
	defer func() {
		if r := recover(); r != nil {
			if !eventlog.Emit("par.queue.panic", slog.String("panic", fmt.Sprint(r))) {
				// No event log installed: the report must still reach a
				// human, so fall back to raw stderr.
				fmt.Fprintf(os.Stderr, "par: queue job panic (dropped): %v\n", r)
			}
		}
	}()
	job()
}

// Depth returns the number of jobs currently buffered (not yet picked up
// by a worker).
func (q *Queue) Depth() int { return len(q.ch) }

// Cap returns the buffer capacity: Depth() == Cap() means Submit blocks.
func (q *Queue) Cap() int { return cap(q.ch) }

// Active returns the number of jobs currently executing on workers.
func (q *Queue) Active() int64 { return q.active.Load() }

// Done returns the total number of jobs completed (including panicked
// ones) since the queue started. Monotonic — a watchdog compares two
// readings to decide whether the pool is making progress.
func (q *Queue) Done() int64 { return q.done.Load() }

// Submit enqueues a job, blocking while the buffer is full. It returns
// false (dropping the job) once Close has been called.
func (q *Queue) Submit(job func()) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	// The channel send happens under the lock so Close can never close the
	// channel between the check and the send; a Submit blocked on a full
	// buffer holds the lock, which makes Close wait for it — accepted work
	// is never dropped. The buffer provides the concurrency.
	mQueueJobs.Inc()
	mQueueDepth.Add(1)
	q.ch <- job
	q.mu.Unlock()
	return true
}

// Close stops accepting jobs and waits until every submitted job has
// finished. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.ch)
	q.mu.Unlock()
	q.wg.Wait()
}
