// Package runner is the one cell scheduler of this repository, plus the
// singleflight memo shared by the layers above it.
//
// Every run here is a deterministic discrete-event simulation seeded from
// its matrix key (scale, mode, repetition), so cells share no state and
// their results do not depend on scheduling. Pool is the only worker pool
// that runs cells: a fixed set of goroutines serving per-tenant FIFO
// queues round-robin, one job at a time. Each submits a batch of cells to
// a Pool and streams their results in completion order; MapCtx runs a
// slice of keys on a private Pool and returns the results in input order,
// so parallel output is byte-identical to serial output. gbd shares one
// Pool among its tenants; gb.Sweep, the scenario engine, the harness and
// tune each get a private one through Each or MapCtx.
//
// Memo is the one singleflight memoization table for results shared
// across runs: the harness's tracing passes and suites, and gbd's cells.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// the process's GOMAXPROCS, i.e. every core the runtime will schedule on.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ErrClosed is returned by Submit (and Each) once the pool has been closed.
var ErrClosed = errors.New("runner: pool closed")

// Pool is a fixed set of worker goroutines draining per-tenant FIFO queues
// in round-robin order. Workers rotate across tenants one job at a time,
// so a tenant that submits a thousand-cell sweep delays a one-cell tenant
// by at most one cell per worker — fairness at cell granularity, without
// preemption, priorities, or starvation.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]func()
	ring   []string // tenants with queued work, round-robin order
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts workers goroutines (<= 0: DefaultWorkers()). They run
// until Close.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{queues: map[string][]func(){}}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues fns, in order, on tenant's queue: all of them, or none
// with ErrClosed once Close has begun. Every enqueued fn runs exactly once
// — jobs whose caller has since given up are expected to notice it
// through their closure and return at once.
func (p *Pool) Submit(tenant string, fns ...func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if len(fns) == 0 { // a ring entry must have a job
		p.mu.Unlock()
		return nil
	}
	if _, ok := p.queues[tenant]; !ok {
		p.ring = append(p.ring, tenant)
	}
	p.queues[tenant] = append(p.queues[tenant], fns...)
	p.mu.Unlock()
	if len(fns) == 1 {
		p.cond.Signal()
	} else {
		p.cond.Broadcast()
	}
	return nil
}

// pop removes and returns the next job in round-robin order. Caller holds
// p.mu and guarantees the ring is non-empty.
func (p *Pool) pop() func() {
	t := p.ring[0]
	q := p.queues[t]
	fn := q[0]
	if len(q) == 1 {
		delete(p.queues, t)
		p.ring = append(p.ring[:0], p.ring[1:]...)
	} else {
		p.queues[t] = q[1:]
		// Rotate in place: the tenant goes to the back so the next
		// worker serves the next tenant.
		copy(p.ring, p.ring[1:])
		p.ring[len(p.ring)-1] = t
	}
	return fn
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for !p.closed && len(p.ring) == 0 {
			p.cond.Wait()
		}
		if len(p.ring) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		fn := p.pop()
		p.mu.Unlock()
		fn()
	}
}

// Close stops accepting new work, lets already-queued jobs run (canceled
// ones are no-ops), and waits for every worker to exit.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Indexed carries one streamed result: the input index it belongs to and
// either its value or its error.
type Indexed[T any] struct {
	Index int
	Val   T
	Err   error
}

// Each submits fn(0) … fn(n-1) to p under tenant, in index order, and
// returns a channel on which every one of them delivers its result exactly
// once, in completion order. The channel is buffered to n and never
// closed: the consumer reads n results, or walks away — no worker ever
// blocks on a result nobody reads. fn observes cancellation through its
// closure. An error result does not stop the others; the consumer decides
// whether to cancel. Each fails only with ErrClosed, having submitted
// nothing.
func Each[T any](p *Pool, tenant string, n int, fn func(i int) (T, error)) (<-chan Indexed[T], error) {
	out := make(chan Indexed[T], n)
	jobs := make([]func(), n)
	for i := range jobs {
		jobs[i] = func() {
			v, err := fn(i)
			out <- Indexed[T]{Index: i, Val: v, Err: err}
		}
	}
	if err := p.Submit(tenant, jobs...); err != nil {
		return nil, err
	}
	return out, nil
}

// MapCtx applies fn to every key on up to workers goroutines and returns
// the results in input order: results[i] is fn(keys[i]), whichever worker
// ran it. workers <= 0 means DefaultWorkers(); the pool never exceeds
// len(keys). fn must be safe to call concurrently.
//
// If any call fails, keys after it are not started, every key before it
// runs, and MapCtx returns the error of the lowest-indexed failed key
// (deterministic even when several keys fail at once) and a nil slice.
// Once ctx is done no further key starts, and MapCtx returns the
// context's error — unless a key failed, whose error wins. fn itself is
// expected to observe ctx through its closure if its work should stop
// mid-key.
func MapCtx[K, T any](ctx context.Context, workers int, keys []K, fn func(K) (T, error)) ([]T, error) {
	n := len(keys)
	if n == 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	results := make([]T, n)
	if workers == 1 || n == 1 {
		// Serial fast path: no goroutines, errors abort immediately.
		for i, k := range keys {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(k)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	p := NewPool(min(workers, n))
	defer p.Close()
	// failed is the lowest failed index so far (n: none). A key above it
	// is skipped; a key below it still runs, since it may fail lower.
	var failed atomic.Int64
	failed.Store(int64(n))
	ch, _ := Each(p, "", n, func(i int) (T, error) { // p is open: cannot fail
		var v T
		if ctx.Err() != nil || int64(i) > failed.Load() {
			return v, nil // skipped: MapCtx returns an error, not v
		}
		v, err := fn(keys[i])
		if err != nil {
			for f := failed.Load(); int64(i) < f; f = failed.Load() {
				if failed.CompareAndSwap(f, int64(i)) {
					break
				}
			}
		}
		return v, err
	})
	var firstErr error
	errIdx := n
	for range n {
		r := <-ch
		if r.Err != nil {
			if r.Index < errIdx {
				errIdx, firstErr = r.Index, r.Err
			}
			continue
		}
		results[r.Index] = r.Val
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Memo is a concurrency-safe singleflight memoization table keyed by
// string: the harness's tracing passes and experiment suites, and gbd's
// rendered cells. The first caller of a key builds it; concurrent callers
// join that build; later callers get the stored result. Callers with
// different keys build concurrently.
//
// Results are deterministic functions of their key, so errors are cached
// like values until Reset. The one exception is a build that fails after
// its caller's ctx has ended: that failure says nothing about the key, so
// its entry is dropped and waiters with live contexts retry, one of them
// rebuilding under its own ctx.
type Memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

// memoEntry is one key's build; closed done publishes val/err.
type memoEntry[T any] struct {
	done    chan struct{}
	val     T
	err     error
	dropped bool // the build ended with its caller's ctx; waiters retry
}

// Get returns the value for key, building it with build on first use.
// build runs on the calling goroutine and should observe ctx through its
// closure. hit reports that the result came from a stored entry or a
// joined in-flight build. A caller whose ctx ends while it waits on
// another caller's build returns ctx.Err() at once; the build continues.
func (c *Memo[T]) Get(ctx context.Context, key string, build func() (T, error)) (val T, hit bool, err error) {
	for {
		c.mu.Lock()
		e := c.m[key]
		if e == nil {
			if c.m == nil {
				c.m = map[string]*memoEntry[T]{}
			}
			e = &memoEntry[T]{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			e.val, e.err = build()
			if e.err != nil && ctx.Err() != nil {
				e.dropped = true
				c.mu.Lock()
				if c.m[key] == e { // Reset may have started a new generation
					delete(c.m, key)
				}
				c.mu.Unlock()
			}
			close(e.done)
			return e.val, false, e.err
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if !e.dropped {
				return e.val, true, e.err
			}
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
	}
}

// Len reports how many keys have an entry (built or in flight).
func (c *Memo[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every cached entry. Builds already in flight complete against
// the old generation and are not visible to later Gets.
func (c *Memo[T]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}
