package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestInterruptReturnsErrCanceled interrupts a run from another goroutine
// and checks Run comes back with the sentinel instead of simulating to
// completion.
func TestInterruptReturnsErrCanceled(t *testing.T) {
	k := NewKernel(1)
	var iters int
	k.Spawn("spinner", func(p *Proc) {
		for i := 0; i < 1_000_000_000; i++ {
			iters++
			p.Hold(Millisecond)
		}
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		k.Interrupt()
	}()
	err := k.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if iters == 0 || iters == 1_000_000_000 {
		t.Fatalf("interrupt landed at %d iterations, want mid-run", iters)
	}
	k.Shutdown()
}

// TestInterruptBeforeRun cancels before any event is processed.
func TestInterruptBeforeRun(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Spawn("p", func(p *Proc) { ran = true })
	k.Interrupt()
	if err := k.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("process body ran despite pre-run interrupt")
	}
	k.Shutdown()
}

// settleGoroutines polls until the goroutine count drops to at most want, or
// times out. A stopped coroutine's goroutine exits asynchronously after
// handing control back, so one measurement can race its exit.
func settleGoroutines(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownUnwindsBlockedProcs proves the leak contract: after
// Run + Shutdown, no process goroutine survives, whether it finished,
// never started, was a parked daemon, or was interrupted mid-primitive.
func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		k := NewKernel(int64(i))
		mb := NewMailbox(k, "mb")
		k.SpawnDaemon("daemon", func(p *Proc) {
			for {
				mb.Recv(p, func(any) bool { return true }) // parked forever: nothing sends
			}
		})
		for j := 0; j < 8; j++ {
			k.Spawn("worker", func(p *Proc) { p.Hold(Second) })
		}
		go func() { k.Interrupt() }()
		if err := k.Run(); err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run: %v", err)
		}
		k.Shutdown()
	}
	// A partitioned kernel interrupted mid-run: its coroutines are resumed
	// from different pool goroutines in different rounds, then stopped
	// from this one.
	k := NewKernel(1)
	k.SetPartitions(4, Millisecond)
	k.SetRunWorkers(4)
	for part := 0; part < 4; part++ {
		mb := NewMailbox(k, "mb")
		k.SpawnDaemonIn(part, "daemon", func(p *Proc) {
			mb.Recv(p, func(any) bool { return true })
		})
		for j := 0; j < 4; j++ {
			k.SpawnIn(part, "worker", func(p *Proc) {
				for i := 0; ; i++ {
					if part == 3 && j == 0 && i == 100 {
						p.Kernel().Interrupt()
					}
					p.Hold(Time(1+j) * Millisecond)
				}
			})
		}
	}
	if err := k.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("partitioned Run returned %v, want ErrCanceled", err)
	}
	if k.PartNow(3) < 100*Millisecond {
		t.Fatalf("partitioned kernel interrupted at %v, want mid-run", k.PartNow(3))
	}
	k.Shutdown()
	if after := settleGoroutines(t, before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestPanicReachesRunCaller: a panic in a process body or a kernel callback
// comes out of Run on the caller's goroutine at every worker count — the
// lowest-indexed panicking partition's, whichever worker ran it — and
// Shutdown afterwards reaps every remaining coroutine.
func TestPanicReachesRunCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, inCallback := range []bool{false, true} {
			before := runtime.NumGoroutine()
			k := NewKernel(1)
			k.SetPartitions(4, Millisecond)
			k.SetRunWorkers(workers)
			for part := 0; part < 4; part++ {
				mb := NewMailbox(k, "mb")
				k.SpawnDaemonIn(part, "daemon", func(p *Proc) {
					mb.Recv(p, func(any) bool { return true })
				})
				k.SpawnIn(part, "worker", func(p *Proc) {
					for i := 0; ; i++ {
						if part >= 2 && i == 10 {
							boom := func() { panic(fmt.Sprintf("boom %d", part)) }
							if inCallback {
								k.PartAt(part, p.Now(), boom)
							} else {
								boom()
							}
						}
						p.Hold(Millisecond)
					}
				})
			}
			got := func() (r any) {
				defer func() { r = recover() }()
				k.Run()
				return nil
			}()
			if got != "boom 2" {
				t.Errorf("workers=%d callback=%v: recovered %v, want boom 2", workers, inCallback, got)
			}
			k.Shutdown()
			if after := settleGoroutines(t, before); after > before {
				t.Fatalf("workers=%d callback=%v: goroutines leaked: %d before, %d after",
					workers, inCallback, before, after)
			}
		}
	}
}

// TestShutdownAfterNormalRunReapsDaemons: a run that completes normally
// still leaves daemon goroutines parked; Shutdown must reap them.
func TestShutdownAfterNormalRunReapsDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	mb := NewMailbox(k, "mb")
	k.SpawnDaemon("daemon", func(p *Proc) {
		mb.Recv(p, func(any) bool { return true })
	})
	k.Spawn("app", func(p *Proc) { p.Hold(Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	k.Shutdown()
	if after := settleGoroutines(t, before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShutdownIdempotent double-Shutdown must not hang or panic.
func TestShutdownIdempotent(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Proc) { p.Hold(Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	k.Shutdown()
	k.Shutdown()
}
