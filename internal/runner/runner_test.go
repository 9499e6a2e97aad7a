package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrder: results must land at their key's index regardless of which
// worker ran them or how long each task took.
func TestMapOrder(t *testing.T) {
	keys := make([]int, 100)
	for i := range keys {
		keys[i] = i
	}
	for _, workers := range []int{0, 1, 3, 8, 200} {
		got, err := MapCtx(context.Background(), workers, keys, func(k int) (int, error) {
			// Reverse-skewed delay: late keys finish first under
			// parallelism, stressing the ordering guarantee.
			time.Sleep(time.Duration(100-k) * time.Microsecond)
			return k * k, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(keys) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(keys))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := MapCtx(context.Background(), 4, nil, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("MapCtx(empty) = %v, %v; want nil, nil", got, err)
	}
}

// TestMapBoundsWorkers: the pool must never run more than `workers` tasks at
// once.
func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	keys := make([]int, 64)
	_, err := MapCtx(context.Background(), workers, keys, func(int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

// TestMapErrorDeterministic: with many failing keys, MapCtx must report the
// lowest-indexed error that actually ran, and with a full failure set that
// is always key 0's error.
func TestMapErrorDeterministic(t *testing.T) {
	keys := make([]int, 32)
	for i := range keys {
		keys[i] = i
	}
	for trial := 0; trial < 20; trial++ {
		_, err := MapCtx(context.Background(), 8, keys, func(k int) (int, error) {
			return 0, fmt.Errorf("key %d failed", k)
		})
		if err == nil {
			t.Fatal("want error, got nil")
		}
		if err.Error() != "key 0 failed" {
			t.Fatalf("trial %d: got %q, want lowest-indexed error %q", trial, err, "key 0 failed")
		}
	}
}

// TestMapErrorStopsScheduling: after a failure no new keys should start
// (in-flight ones may finish).
func TestMapErrorStopsScheduling(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	keys := make([]int, 1000)
	for i := range keys {
		keys[i] = i
	}
	_, err := MapCtx(context.Background(), 2, keys, func(k int) (int, error) {
		started.Add(1)
		if k == 0 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return k, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if s := started.Load(); s > 100 {
		t.Fatalf("%d tasks started after early failure; scheduling did not stop", s)
	}
}

// TestMapErrorLowestIndexAmongMixed: when only some keys fail, the reported
// error must be the lowest-indexed failing key even if a higher-indexed key
// fails first in wall-clock time.
func TestMapErrorLowestIndexAmongMixed(t *testing.T) {
	keys := make([]int, 64)
	for i := range keys {
		keys[i] = i
	}
	for trial := 0; trial < 20; trial++ {
		_, err := MapCtx(context.Background(), 8, keys, func(k int) (int, error) {
			switch {
			case k == 40:
				// Fails instantly, long before key 17 below.
				return 0, fmt.Errorf("key %d failed", k)
			case k == 17:
				time.Sleep(500 * time.Microsecond)
				return 0, fmt.Errorf("key %d failed", k)
			default:
				time.Sleep(50 * time.Microsecond)
				return k, nil
			}
		})
		if err == nil {
			t.Fatal("want error, got nil")
		}
		if err.Error() != "key 17 failed" {
			t.Fatalf("trial %d: got %q, want %q", trial, err, "key 17 failed")
		}
	}
}

// TestMapErrorLowerFailsFirst: a lower key whose error arrives before a
// higher in-flight key's error still wins — the order results reach
// MapCtx does not pick the error.
func TestMapErrorLowerFailsFirst(t *testing.T) {
	oneStarted, zeroFailing := make(chan struct{}), make(chan struct{})
	_, err := MapCtx(context.Background(), 2, []int{0, 1}, func(k int) (int, error) {
		if k == 0 {
			<-oneStarted
			close(zeroFailing)
			return 0, errors.New("key 0 failed")
		}
		close(oneStarted)
		<-zeroFailing
		time.Sleep(time.Millisecond)
		return 0, errors.New("key 1 failed")
	})
	if err == nil || err.Error() != "key 0 failed" {
		t.Fatalf("got %v, want %q", err, "key 0 failed")
	}
}

// TestMemoSingleBuild: concurrent Gets of one key must run the build exactly
// once and share the value; distinct keys build independently.
func TestMemoSingleBuild(t *testing.T) {
	var m Memo[int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	vals := make([]int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := m.Get(ctx, "k", func() (int, error) {
				builds.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d, want 42", i, v)
		}
	}
	if v, _, _ := m.Get(ctx, "other", func() (int, error) { builds.Add(1); return 7, nil }); v != 7 {
		t.Fatalf("second key = %d, want 7", v)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
}

// TestMemoErrorCachedUntilReset: a failed build is cached (deterministic
// simulations fail identically on retry) and cleared by Reset.
func TestMemoErrorCachedUntilReset(t *testing.T) {
	var m Memo[int]
	var builds atomic.Int64
	ctx := context.Background()
	boom := errors.New("boom")
	build := func() (int, error) {
		builds.Add(1)
		return 0, boom
	}
	if _, _, err := m.Get(ctx, "k", build); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if _, hit, err := m.Get(ctx, "k", build); !errors.Is(err, boom) || !hit {
		t.Fatalf("cached: got %v (hit %v), want %v from the cache", err, hit, boom)
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (error should be cached)", builds.Load())
	}
	m.Reset()
	if v, _, err := m.Get(ctx, "k", func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("after Reset: %d, %v; want 9, nil", v, err)
	}
}

// waitCtx is a live context that reports when a Get starts waiting on it:
// Memo.Get consults a caller's Done channel only while waiting on another
// caller's build, so the first Done call means the caller has joined.
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitCtx(parent context.Context) *waitCtx {
	return &waitCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestMemoCanceledBuildNotCached: a build that fails after its caller's ctx
// ended says nothing about the key, so the next caller rebuilds it.
func TestMemoCanceledBuildNotCached(t *testing.T) {
	var m Memo[int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, hit, err := m.Get(ctx, "k", func() (int, error) { return 0, ctx.Err() }); !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("canceled build: err %v hit %v, want context.Canceled, miss", err, hit)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("canceled build left %d entries, want 0", n)
	}
	v, hit, err := m.Get(context.Background(), "k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 || hit {
		t.Fatalf("rebuild: %d, hit %v, %v; want 3, miss, nil", v, hit, err)
	}
}

// TestMemoWaiterRebuildsAfterBuilderCanceled: a waiter with a live ctx that
// joined a build whose caller was canceled rebuilds under its own ctx
// instead of inheriting the cancellation.
func TestMemoWaiterRebuildsAfterBuilderCanceled(t *testing.T) {
	var m Memo[int]
	bctx, cancel := context.WithCancel(context.Background())
	wctx := newWaitCtx(context.Background())
	started := make(chan struct{})
	builderErr := make(chan error, 1)
	go func() {
		_, _, err := m.Get(bctx, "k", func() (int, error) {
			close(started)
			<-wctx.waiting
			cancel()
			return 0, bctx.Err()
		})
		builderErr <- err
	}()
	<-started
	var rebuilds atomic.Int64
	v, hit, err := m.Get(wctx, "k", func() (int, error) { rebuilds.Add(1); return 5, nil })
	if err != nil || v != 5 || hit {
		t.Fatalf("waiter: %d, hit %v, %v; want 5, miss (rebuilt), nil", v, hit, err)
	}
	if n := rebuilds.Load(); n != 1 {
		t.Fatalf("waiter rebuilt %d times, want 1", n)
	}
	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder: %v, want context.Canceled", err)
	}
	if v, hit, _ := m.Get(context.Background(), "k", nil); v != 5 || !hit {
		t.Fatalf("after rebuild: %d, hit %v; want the stored 5", v, hit)
	}
}

// TestMemoWaiterCancelReturnsPromptly: a waiter whose own ctx ends stops
// waiting at once; the build it joined runs on and is stored.
func TestMemoWaiterCancelReturnsPromptly(t *testing.T) {
	var m Memo[int]
	started, release := make(chan struct{}), make(chan struct{})
	type out struct {
		v   int
		hit bool
		err error
	}
	builder := make(chan out, 1)
	go func() {
		v, hit, err := m.Get(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		builder <- out{v, hit, err}
	}()
	<-started
	parent, cancel := context.WithCancel(context.Background())
	wctx := newWaitCtx(parent)
	waiter := make(chan out, 1)
	go func() {
		v, hit, err := m.Get(wctx, "k", func() (int, error) { t.Error("waiter built"); return 0, nil })
		waiter <- out{v, hit, err}
	}()
	<-wctx.waiting
	cancel()
	select {
	case o := <-waiter:
		if !errors.Is(o.err, context.Canceled) || o.hit {
			t.Fatalf("canceled waiter: hit %v, %v; want miss, context.Canceled", o.hit, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter still blocked on the build")
	}
	select {
	case <-builder:
		t.Fatal("build finished before release")
	default:
	}
	close(release)
	if o := <-builder; o.err != nil || o.v != 42 || o.hit {
		t.Fatalf("builder: %d, hit %v, %v; want 42, miss, nil", o.v, o.hit, o.err)
	}
	if v, hit, err := m.Get(context.Background(), "k", nil); err != nil || v != 42 || !hit {
		t.Fatalf("after build: %d, hit %v, %v; want the stored 42", v, hit, err)
	}
}

// TestMemoHitFlag: hit is false for the caller that builds and true both
// for a caller that joins the in-flight build and for one that finds the
// stored entry.
func TestMemoHitFlag(t *testing.T) {
	var m Memo[int]
	wctx := newWaitCtx(context.Background())
	started := make(chan struct{})
	builderHit := make(chan bool, 1)
	go func() {
		_, hit, _ := m.Get(context.Background(), "k", func() (int, error) {
			close(started)
			<-wctx.waiting
			return 8, nil
		})
		builderHit <- hit
	}()
	<-started
	if v, hit, err := m.Get(wctx, "k", nil); err != nil || v != 8 || !hit {
		t.Fatalf("joined in-flight build: %d, hit %v, %v; want 8, hit, nil", v, hit, err)
	}
	if hit := <-builderHit; hit {
		t.Fatal("builder reported a hit")
	}
	if v, hit, err := m.Get(context.Background(), "k", nil); err != nil || v != 8 || !hit {
		t.Fatalf("stored entry: %d, hit %v, %v; want 8, hit, nil", v, hit, err)
	}
}

func TestMapCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, 4, []int{1, 2, 3}, func(k int) (int, error) { return k, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	keys := make([]int, 1000)
	_, err := MapCtx(ctx, 4, keys, func(k int) (int, error) {
		if started.Add(1) == 10 {
			cancel()
		}
		return k, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d keys ran despite cancellation", n)
	}
}

func TestMapCtxKeyErrorBeatsCancel(t *testing.T) {
	// A key failure and a cancellation in the same batch: the key error
	// wins (deterministic, matches the lowest-index rule).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 2, []int{0, 1}, func(k int) (int, error) {
		if k == 0 {
			cancel()
			return 0, boom
		}
		return k, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the key error", err)
	}
}

func TestEachStreamsAllResults(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	keys := []int{10, 20, 30, 40, 50}
	ch, err := Each(p, "t", len(keys), func(i int) (int, error) { return keys[i] * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for range keys {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("key %d: %v", r.Index, r.Err)
		}
		seen[r.Index] = r.Val
	}
	if len(seen) != len(keys) {
		t.Fatalf("got %d results, want %d", len(seen), len(keys))
	}
	for i, k := range keys {
		if seen[i] != k*2 {
			t.Fatalf("index %d: got %d, want %d", i, seen[i], k*2)
		}
	}
}

func TestEachErrorsDoNotStopPool(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := errors.New("boom")
	ch, err := Each(p, "t", 4, func(i int) (int, error) {
		if i%2 == 0 {
			return 0, boom
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var oks, errs int
	for range 4 {
		if r := <-ch; r.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if oks != 2 || errs != 2 {
		t.Fatalf("got %d oks, %d errs; want 2 and 2", oks, errs)
	}
}

// TestEachCancelAndDrainDoesNotLeak: a consumer that reads one result,
// cancels and abandons the channel unread strands no worker — Close
// returns once the canceled jobs have run, and no goroutine is left.
func TestEachCancelAndDrainDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		p := NewPool(4)
		ch, err := Each(p, "t", 100, func(k int) (int, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return k, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		<-ch
		cancel()
		p.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestPoolFairness: with one worker and a deep queue from tenant A, a
// late-arriving tenant B job runs after at most one more A job — round
// robin at cell granularity, not FIFO across the whole queue.
func TestPoolFairness(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	record := func(id string) func() {
		return func() {
			<-gate
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
	}
	p := NewPool(1)
	for i := 0; i < 8; i++ {
		if err := p.Submit("a", record(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Submit("b", record("b0")); err != nil {
		t.Fatal(err)
	}
	close(gate)
	p.Close()

	pos := -1
	for i, id := range order {
		if id == "b0" {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("tenant b's only job ran at position %d of %v, want within the first 3", pos, order)
	}
}

// TestPoolDrainRejects: Submit and Each after Close fail with ErrClosed
// and run nothing.
func TestPoolDrainRejects(t *testing.T) {
	p := NewPool(1)
	p.Close()
	if err := p.Submit("x", func() { t.Error("job ran after Close") }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := Each(p, "x", 3, func(int) (int, error) { t.Error("job ran after Close"); return 0, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Each after Close = %v, want ErrClosed", err)
	}
}

// BenchmarkMapCtx is the scheduler's own cost: 1024 trivial keys on two
// workers, so the time and allocations are the pool's, not the work's.
func BenchmarkMapCtx(b *testing.B) {
	keys := make([]int, 1024)
	for i := range keys {
		keys[i] = i
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MapCtx(ctx, 2, keys, func(k int) (int, error) { return k, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
