package simnet

import "fmt"

// WorkerPool is a fixed-size pool of worker goroutines shared across
// engine invocations. The bitset engine's row bands historically spawned
// a fresh goroutine set per run and tore it down with an explicit stop
// fan-out that error paths skipped, leaking workers; a WorkerPool is
// created once per formation (both phases of a core.Form call, or the
// initial formation of an incremental Field), passed in via
// Options.Pool / GenericOptions.Pool, and closed exactly once by its
// owner — engines that receive one never spawn.
//
// The pool is a plain jobs/done channel pair: Run dispatches a batch and
// blocks until every job returned, which doubles as the engines' round
// barrier. Channel operations give the usual happens-before edges, so a
// coordinator mutating shared state between Run calls needs no further
// synchronization. Run is not safe for concurrent use of the same pool;
// the engines are strictly phase-sequential, which is the intended use.
type WorkerPool struct {
	jobs chan func()
	done chan struct{}
	size int
}

// NewWorkerPool starts n worker goroutines (n >= 1) and returns the
// pool. Close must be called to release them.
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{
		jobs: make(chan func(), n),
		done: make(chan struct{}, n),
		size: n,
	}
	for i := 0; i < n; i++ {
		go func() {
			for f := range p.jobs {
				f()
				p.done <- struct{}{}
			}
		}()
	}
	return p
}

// Size returns the worker count.
func (p *WorkerPool) Size() int { return p.size }

// Run dispatches the jobs to the workers and blocks until all have
// completed — a full barrier. len(fs) must not exceed Size (both
// channels are sized to the pool, so larger batches could deadlock);
// engines size their tile count to the pool they use.
func (p *WorkerPool) Run(fs []func()) {
	if len(fs) > p.size {
		panic(fmt.Sprintf("simnet: WorkerPool.Run got %d jobs for %d workers", len(fs), p.size))
	}
	for _, f := range fs {
		p.jobs <- f
	}
	for range fs {
		<-p.done
	}
}

// Close stops the workers. The pool must be idle (no Run in flight);
// Run must not be called after Close.
func (p *WorkerPool) Close() { close(p.jobs) }

// acquirePool returns the pool an engine invocation should fan out
// over: the caller-provided shared pool when it can host n concurrent
// jobs, else a private pool. The returned release func must run on
// every exit path (defer it): it closes a private pool — fixing the
// historical worker leak on error returns — and is a no-op for a
// shared one, whose owner closes it.
func acquirePool(shared *WorkerPool, n int) (pool *WorkerPool, release func()) {
	if shared != nil && shared.Size() >= n {
		return shared, func() {}
	}
	pool = NewWorkerPool(n)
	return pool, pool.Close
}
