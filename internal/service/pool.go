package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// ErrQueueFull is returned by Pool.Do when the submission queue is at
// capacity; the HTTP layer translates it to 429 + Retry-After.
var ErrQueueFull = errors.New("service: worker queue full")

// ErrPoolClosed is returned by Pool.Do and Pool.DoWait after Close, and
// by a DoWait that Close interrupted.
var ErrPoolClosed = errors.New("service: pool closed")

// ErrSolvePanic is returned (wrapped) by Pool.Do when the submitted
// closure panicked; the worker survives and the HTTP layer answers 500.
var ErrSolvePanic = errors.New("service: solve panicked")

// Pool is a bounded worker pool with a bounded submission queue. Workers
// execute solver closures; when the queue is full, Do fails fast instead
// of letting latency grow without bound (load shedding).
type Pool struct {
	queue   chan poolTask
	metrics *Metrics

	mu      sync.Mutex
	closed  bool
	closing chan struct{} // closed by Close: wakes blocked DoWait senders
	senders sync.WaitGroup
	wg      sync.WaitGroup
}

type poolTask struct {
	fn  func() (any, error)
	res chan poolResult
}

type poolResult struct {
	val any
	err error
}

// NewPool starts a pool of workers (< 1 defaults to GOMAXPROCS) with a
// queue of queueSize pending tasks (< 1 defaults to 4× workers),
// reporting queue depth and solve latency to metrics.
func NewPool(workers, queueSize int, metrics *Metrics) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueSize < 1 {
		queueSize = 4 * workers
	}
	p := &Pool{queue: make(chan poolTask, queueSize), metrics: metrics, closing: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.queue {
		p.metrics.QueueLeave()
		start := time.Now()
		val, err := runTask(t.fn)
		p.metrics.ObserveSolve(time.Since(start).Seconds())
		t.res <- poolResult{val, err}
	}
}

// Do submits fn and waits for its result or for ctx. It returns
// ErrQueueFull immediately when the queue is at capacity. If ctx expires
// first, Do returns ctx.Err(); the task itself still runs to completion
// on its worker (solvers are not preemptible), but its result is
// discarded without blocking the worker.
func (p *Pool) Do(ctx context.Context, fn func() (any, error)) (any, error) {
	return p.submit(ctx, fn, false)
}

// DoWait submits fn like Do but, instead of failing fast when the queue
// is full, blocks until a queue slot frees, ctx is cancelled or the
// pool closes (ErrPoolClosed). This is the async-jobs submission path:
// a job accepted into the (separately capped) job store waits for pool
// capacity rather than bouncing with 429, and a cancelled job abandons
// its slot wait. Like Do, if ctx expires after the task was enqueued,
// the task still runs to completion on its worker and only the wait is
// abandoned.
func (p *Pool) DoWait(ctx context.Context, fn func() (any, error)) (any, error) {
	return p.submit(ctx, fn, true)
}

// submit is the one enqueue discipline of Do and DoWait. A send that
// succeeds at once happens under the mutex, so it never races Close. A
// send that has to wait cannot hold the mutex; it registers as a
// sender instead, and Close wakes it and waits for it to leave before
// closing the queue.
func (p *Pool) submit(ctx context.Context, fn func() (any, error), wait bool) (any, error) {
	t := poolTask{fn: fn, res: make(chan poolResult, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	// The gauge is raised before the enqueue attempt: a worker may pick
	// the task up (and call QueueLeave) the instant the send succeeds, and
	// raising it afterwards would let the gauge dip below zero.
	p.metrics.QueueEnter()
	select {
	case p.queue <- t:
		p.mu.Unlock()
	default:
		if !wait {
			p.mu.Unlock()
			p.metrics.QueueLeave()
			return nil, ErrQueueFull
		}
		p.senders.Add(1)
		p.mu.Unlock()
		err := p.await(ctx, t)
		p.senders.Done()
		if err != nil {
			p.metrics.QueueLeave()
			return nil, err
		}
	}
	select {
	case r := <-t.res:
		return r.val, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// await blocks until t is enqueued, ctx is done or the pool closes.
func (p *Pool) await(ctx context.Context, t poolTask) error {
	select {
	case p.queue <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.closing:
		return ErrPoolClosed
	}
}

// runTask runs one solver closure, converting a panic into an error so
// a buggy solver fails its one request instead of crashing the process
// (net/http's per-connection recover does not cover pool goroutines).
func runTask(fn func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("%w: %v", ErrSolvePanic, r)
		}
	}()
	return fn()
}

// Close stops accepting work and waits for queued tasks to drain and
// workers to exit (graceful shutdown). A DoWait still waiting for a
// queue slot returns ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.closing)
	p.mu.Unlock()
	p.senders.Wait()
	close(p.queue)
	p.wg.Wait()
}
