// Package runner is the harness's parallel experiment execution engine: a
// worker-pool scheduler that fans independent simulation runs across
// GOMAXPROCS goroutines and collects their results in stable input order.
//
// Every run in this repository is a deterministic discrete-event simulation
// seeded from its matrix key (scale, mode, repetition), so runs share no
// state and their results do not depend on scheduling. The runner exploits
// that: experiments hand it their run matrix as a flat slice of keys, and
// Map guarantees results[i] corresponds to keys[i] no matter which worker
// executed it or in what order workers finished. Parallel output is
// therefore byte-identical to serial output.
//
// Memo is the one singleflight memoization table for results shared
// across runs: the harness's tracing passes and suites, and gbd's cells.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// the process's GOMAXPROCS, i.e. every core the runtime will schedule on.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Map applies fn to every key on up to workers goroutines and returns the
// results in input order: results[i] is fn(keys[i]). workers <= 0 means
// DefaultWorkers(); the pool never exceeds len(keys).
//
// fn must be safe to call concurrently from multiple goroutines. If any call
// fails, Map stops handing out new keys, waits for in-flight calls, and
// returns the error of the lowest-indexed failed key (deterministic even
// when several keys fail in the same batch) along with a nil slice.
func Map[K, T any](workers int, keys []K, fn func(K) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, keys, fn)
}

// MapCtx is Map with cancellation: once ctx is done the pool stops handing
// out new keys, waits for in-flight calls, and returns the context's error
// (unless a key failed first — a key error at a lower index wins, keeping
// the error deterministic). fn itself is expected to observe ctx through
// its closure if its work should stop mid-key.
func MapCtx[K, T any](ctx context.Context, workers int, keys []K, fn func(K) (T, error)) ([]T, error) {
	n := len(keys)
	if n == 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, errors abort immediately.
		results := make([]T, n)
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

	results := make([]T, n)
	var (
		next    atomic.Int64 // next key index to claim
		failed  atomic.Bool  // stops new claims after the first error
		errMu   sync.Mutex
		errIdx  = n // lowest failed index seen so far
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check for failure before claiming: indexes are
				// claimed in order and a claimed index always runs,
				// so every key below a failed key executes and the
				// lowest-indexed error is always observed.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(keys[i])
				if err != nil {
					failed.Store(true)
					errMu.Lock()
					if i < errIdx {
						errIdx, firstEr = i, err
					}
					errMu.Unlock()
					return
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Indexed carries one streamed result: the input index it belongs to and
// either its value or its error.
type Indexed[T any] struct {
	Index int
	Val   T
	Err   error
}

// Each applies fn to every key on up to workers goroutines and delivers
// results on the returned channel in completion order — the streaming
// counterpart to Map, for consumers that want cells as they finish rather
// than a barrier at the end. The channel closes once every claimed key has
// been delivered or dropped.
//
// Cancellation contract: when ctx is done, workers stop claiming new keys
// and stop delivering (an undeliverable in-flight result is dropped), so a
// consumer that cancels and then drains the channel never leaks a
// goroutine. Unlike Map, an error result does not stop the pool — the
// consumer decides whether to cancel.
func Each[K, T any](ctx context.Context, workers int, keys []K, fn func(K) (T, error)) <-chan Indexed[T] {
	n := len(keys)
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	out := make(chan Indexed[T])
	if n == 0 {
		close(out)
		return out
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(keys[i])
				select {
				case out <- Indexed[T]{Index: i, Val: v, Err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
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
