package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ErrCanceled is returned by Run when the kernel was interrupted (see
// Interrupt) before the event queue drained. Callers cancel a simulation by
// arranging for Interrupt to fire — e.g. via context.AfterFunc — and then
// matching this sentinel with errors.Is.
var ErrCanceled = errors.New("sim: run interrupted")

// event is a scheduled occurrence: the wakeup of a blocked process, a
// kernel-context callback, or a pre-bound callback with one argument (the
// allocation-free form used by the message delivery path).
type event struct {
	at    Time
	seq   uint64    // tie-break: FIFO among events at the same instant
	p     *Proc     // non-nil: resume this process…
	token uint64    // …if its wake token still matches
	fn    func()    // non-nil: run this callback in kernel context
	fn1   func(any) // non-nil: run fn1(arg) in kernel context
	arg   any
}

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a concrete min-heap of event values ordered by (at, seq).
// Every simulated operation funnels through push/pop here, so the heap is
// deliberately monomorphic: events are stored by value (one backing array,
// no per-event allocation) and sifted with inlined comparisons instead of
// container/heap's interface calls. The heap.Interface version this
// replaces boxed each *event through `any` and paid a dynamic dispatch per
// comparison and swap; see BenchmarkKernelEventChurn.
type eventHeap struct {
	a []event
}

func (h *eventHeap) Len() int { return len(h.a) }

func (h *eventHeap) peek() *event { return &h.a[0] }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	// Sift up, moving the hole instead of swapping.
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = e
}

func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = event{} // release the callback/proc references
	h.a = h.a[:n]
	if n > 0 {
		// Sift the former last element down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h.a[r].before(&h.a[c]) {
				c = r
			}
			if !h.a[c].before(&last) {
				break
			}
			h.a[i] = h.a[c]
			i = c
		}
		h.a[i] = last
	}
	return top
}

// xev is a cross-partition event staged in the sending partition's outbox
// during a window and merged into the destination partition's heap at the
// round barrier. Staging is append-only into a reused slice, so the
// cross-partition send path allocates nothing in steady state.
type xev struct {
	dst int
	at  Time
	fn1 func(any)
	arg any
}

// infTime is beyond any reachable virtual time; used as the "no bound" /
// "no event" sentinel in the coordinator.
const infTime = Time(1<<62 - 1)

// partition is one sub-kernel: a slice of the simulation (a set of processes
// and everything they touch exclusively) with its own event heap, clock,
// sequence counter, and random stream. During a multi-partition
// round, each runnable partition executes its window on a worker goroutine
// with no coordination whatsoever — the conservative bounds computed by the
// coordinator guarantee no event destined to it can materialize inside its
// window.
type partition struct {
	k       *Kernel
	id      int
	now     Time
	eq      eventHeap
	seq     uint64
	handoff *Proc // set by a yielding process: the driver resumes it next
	procs   []*Proc
	live    int // non-daemon processes that have not finished
	rng     *rand.Rand
	events  uint64
	bound   Time  // exclusive upper bound of the current window
	outbox  []xev // cross-partition events staged this window
}

// Kernel is a discrete-event simulation kernel. The zero value is not usable;
// construct with NewKernel.
//
// Every process body is a runtime coroutine (iter.Pull), and within a
// partition exactly one of them, or the window driver, runs at a time. The
// driver resumes a process by calling its next; when the process blocks, it
// runs the partition's event loop itself and either keeps running (the next
// wakeup is its own — no switch at all) or records the next process to run
// and yields back to the driver, which resumes that one. A coroutine switch
// is a direct goroutine exchange in the runtime, with no scheduler wakeup.
//
// A kernel starts with a single partition, which behaves exactly like the
// classic serial kernel. SetPartitions splits the simulation into
// independent sub-kernels synchronized by conservative lookahead: the
// coordinator repeatedly computes the window [T, T + lookahead) — T being
// the smallest next-event time across partitions, the window further capped
// by the next global event and the horizon — lets each partition process
// all its events strictly inside the window — in parallel, on up to
// SetRunWorkers goroutines — then merges the cross-partition events staged
// during the round. Every cross-partition event carries at least one
// lookahead of delay, so nothing generated during a round (by any chain of
// hops) can land inside it. Because the windows and the merge order depend
// only on event timestamps (never on which goroutine ran what when), the
// simulation is byte-identical at every worker count, including 1.
type Kernel struct {
	parts []*partition
	rng   *rand.Rand // master stream: construction-time draws + partition 0

	// Global (barrier-synchronized) events. They execute only when every
	// partition has consumed all events strictly before their timestamp,
	// so a global callback observes a deterministic, fully-quiesced
	// simulation state — failure injectors and probes run here.
	gq      eventHeap
	gseq    uint64
	gnow    Time
	gevents uint64

	lookahead Time // minimum cross-partition event delay; > 0 when partitioned
	workers   int  // max partitions executing concurrently per round

	barriers []func() // flush hooks, run after every round merge
	stalls   uint64   // lookahead stalls: nonempty partitions held back a round

	nprocs  int
	running bool
	stopAt  Time     // 0 = no horizon
	metrics *Metrics // nil unless observing; see SetMetrics

	// intr is set by Interrupt (any goroutine); step checks it between
	// events, so every partition's event loop stops promptly and Run
	// returns ErrCanceled.
	intr atomic.Bool
}

// NewKernel returns a kernel whose random source is seeded with seed.
// Identical seeds produce identical simulations.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(seed))}
	k.parts = []*partition{{k: k, id: 0, rng: k.rng}}
	return k
}

// SetPartitions splits the kernel into n sub-kernels synchronized by
// conservative lookahead: every cross-partition event must carry a delay of
// at least lookahead (the network latency, for a message-passing
// simulation). Call once, after construction-time randomness (cluster
// seeding) and before any process is spawned outside partition 0; panics
// otherwise. n == 1 leaves the classic serial kernel untouched.
//
// Partition 1..n-1 random streams are derived deterministically from the
// master stream, so the partition count — but never the worker count —
// is part of the simulation's identity.
func (k *Kernel) SetPartitions(n int, lookahead Time) {
	switch {
	case k.running:
		panic("sim: SetPartitions during Run")
	case len(k.parts) != 1 || len(k.parts[0].procs) != 0:
		panic("sim: SetPartitions after processes were spawned")
	case n < 1:
		panic("sim: SetPartitions with n < 1")
	}
	if n == 1 {
		return
	}
	if lookahead <= 0 {
		panic("sim: multi-partition kernel requires positive lookahead")
	}
	k.lookahead = lookahead
	for i := 1; i < n; i++ {
		k.parts = append(k.parts, &partition{
			k: k, id: i, rng: rand.New(rand.NewSource(k.rng.Int63())),
		})
	}
}

// SetRunWorkers bounds how many partitions execute concurrently within each
// round (default 1 = sequential). The simulation output is byte-identical at
// every setting; only wall-clock time changes. Values above the partition
// count are clamped.
func (k *Kernel) SetRunWorkers(n int) {
	if n < 1 {
		n = 1
	}
	k.workers = n
}

// Partitions returns the number of partitions (1 for a serial kernel).
func (k *Kernel) Partitions() int { return len(k.parts) }

// LookaheadStalls returns how many times a nonempty partition sat out a
// round because the conservative bound held it back — the coordination cost
// of the partitioned schedule.
func (k *Kernel) LookaheadStalls() uint64 { return k.stalls }

// OnBarrier registers fn to run in coordinator context after every round's
// cross-partition merge (and once more when the run ends). All partitions
// are quiesced when it runs; engines use it to flush per-partition buffers
// in a deterministic order. Barrier hooks never fire on a single-partition
// kernel during the run — only the final flush does.
func (k *Kernel) OnBarrier(fn func()) { k.barriers = append(k.barriers, fn) }

// Now returns the current virtual time: the serial clock on a
// single-partition kernel, and the global lower-bound clock (advanced by
// barrier-synchronized events; equal to the completion time after Run
// returns) on a partitioned one. Inside a partition's window, use
// Proc.Now or PartNow — partition clocks advance independently.
func (k *Kernel) Now() Time {
	if len(k.parts) == 1 {
		return k.parts[0].now
	}
	return k.gnow
}

// PartNow returns partition p's local virtual time.
func (k *Kernel) PartNow(p int) Time { return k.parts[p].now }

// Rand returns the kernel's master deterministic random source (also
// partition 0's stream). Draws made during a partitioned run must instead
// use PartRand with the caller's own partition.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// PartRand returns partition p's deterministic random stream. On a
// single-partition kernel PartRand(0) is the master stream, so code that
// routes its draws through PartRand is bit-identical to the classic kernel
// when unpartitioned.
func (k *Kernel) PartRand(p int) *rand.Rand { return k.parts[p].rng }

// Events returns the number of events processed so far (for diagnostics).
func (k *Kernel) Events() uint64 {
	n := k.gevents
	for _, pt := range k.parts {
		n += pt.events
	}
	return n
}

// Procs returns the processes spawned so far, grouped by partition in spawn
// order.
func (k *Kernel) Procs() []*Proc {
	if len(k.parts) == 1 {
		return k.parts[0].procs
	}
	var all []*Proc
	for _, pt := range k.parts {
		all = append(all, pt.procs...)
	}
	return all
}

// SetHorizon makes Run stop once virtual time would exceed t. Zero disables
// the horizon.
func (k *Kernel) SetHorizon(t Time) { k.stopAt = t }

// Interrupt requests that Run stop between events and return ErrCanceled.
// It is the only Kernel method safe to call from outside the simulation —
// context plumbing hangs a context.AfterFunc on it. Interrupting leaves the
// blocked processes suspended; call Shutdown (after Run returns) to stop
// their coroutines.
func (k *Kernel) Interrupt() { k.intr.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (k *Kernel) Interrupted() bool { return k.intr.Load() }

// At schedules fn to run in kernel context at virtual time t (or now, if t is
// in the past). fn must not block: it may schedule events, put messages into
// mailboxes, and spawn processes, but must not call Hold, Recv, or any other
// blocking primitive. "Kernel context" is whichever process or window
// driver is running the partition's event loop when the event fires. On a
// partitioned kernel, At targets partition 0; use PartAt from any other
// partition's context.
func (k *Kernel) At(t Time, fn func()) { k.PartAt(0, t, fn) }

// PartAt is At targeting partition p. It may be called before Run, from
// partition p's own context, or from a global (barrier) event.
func (k *Kernel) PartAt(p int, t Time, fn func()) {
	pt := k.parts[p]
	if t < pt.now {
		t = pt.now
	}
	pt.seq++
	pt.eq.push(event{at: t, seq: pt.seq, fn: fn})
}

// At1 is At for a pre-bound callback taking one argument. Because fn can be
// a long-lived closure and arg rides in the event's interface slot, a hot
// path that schedules the same handler for every message (mpi delivery)
// allocates nothing per call. On a partitioned kernel, At1 targets
// partition 0; use PartAt1 or CrossAt1 elsewhere.
func (k *Kernel) At1(t Time, fn func(any), arg any) { k.PartAt1(0, t, fn, arg) }

// PartAt1 is At1 targeting partition p. The caller must be partition p's
// own context (or pre-run / a global event): scheduling into a foreign
// partition's heap mid-window is a data race — that is what CrossAt1 is for.
func (k *Kernel) PartAt1(p int, t Time, fn func(any), arg any) {
	pt := k.parts[p]
	if t < pt.now {
		t = pt.now
	}
	pt.seq++
	pt.eq.push(event{at: t, seq: pt.seq, fn1: fn, arg: arg})
}

// CrossAt1 schedules fn(arg) at time t in partition dst from partition
// src's executing context. Same-partition calls push directly; foreign
// events are staged in src's outbox and merged at the round barrier, which
// requires t ≥ the staging instant + the kernel's lookahead — the
// coordinator panics on a violation, because it would mean a partition
// observed an event the conservative bound said could not exist.
func (k *Kernel) CrossAt1(src, dst int, t Time, fn func(any), arg any) {
	if src == dst || !k.running {
		k.PartAt1(dst, t, fn, arg)
		return
	}
	sp := k.parts[src]
	if t < sp.now+k.lookahead {
		panic(fmt.Sprintf("sim: cross-partition event %d→%d at t=%d staged under the lookahead floor (now=%d, lookahead=%d)",
			src, dst, t, sp.now, k.lookahead))
	}
	sp.outbox = append(sp.outbox, xev{dst: dst, at: t, fn1: fn, arg: arg})
}

// After is At relative to the current time (partition 0's clock).
func (k *Kernel) After(d Time, fn func()) { k.At(k.parts[0].now+d, fn) }

// GlobalAt schedules fn as a barrier-synchronized global event at time t: it
// runs in coordinator context once every partition has processed all events
// strictly before t, observing a deterministic quiesced state. On a
// single-partition kernel it is plain At — same semantics, no barrier
// needed.
func (k *Kernel) GlobalAt(t Time, fn func()) {
	if len(k.parts) == 1 {
		k.At(t, fn)
		return
	}
	if t < k.gnow {
		t = k.gnow
	}
	k.gseq++
	k.gq.push(event{at: t, seq: k.gseq, fn: fn})
}

// GlobalAfter is GlobalAt relative to the global clock.
func (k *Kernel) GlobalAfter(d Time, fn func()) { k.GlobalAt(k.Now()+d, fn) }

// scheduleWake schedules the resumption of p at time t. The wake is dropped
// if p is woken by another path first (its token advances on every resume).
func (pt *partition) scheduleWake(t Time, p *Proc) {
	if t < pt.now {
		t = pt.now
	}
	pt.seq++
	pt.eq.push(event{at: t, seq: pt.seq, p: p, token: p.token})
}

// Spawn creates a simulated process named name running fn and schedules it to
// start at the current virtual time, in partition 0.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.parts[0], name, fn, false)
}

// SpawnIn is Spawn into a specific partition. Mid-run, the caller must be
// executing in that partition.
func (k *Kernel) SpawnIn(part int, name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.parts[part], name, fn, false)
}

// SpawnDaemon is Spawn for background service processes (protocol daemons,
// controllers). A blocked daemon does not count as a deadlock: Run returns
// nil when only daemons remain.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.parts[0], name, fn, true)
}

// SpawnDaemonIn is SpawnDaemon into a specific partition.
func (k *Kernel) SpawnDaemonIn(part int, name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.parts[part], name, fn, true)
}

func (k *Kernel) spawn(pt *partition, name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{
		pt:      pt,
		id:      len(pt.procs),
		name:    name,
		blocked: true,
		state:   "start",
		daemon:  daemon,
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		runProcBody(p, fn)
		p.done = true
		if !p.daemon {
			p.pt.live--
		}
	})
	pt.procs = append(pt.procs, p)
	if !daemon {
		pt.live++
	}
	pt.scheduleWake(pt.now, p)
	return p
}

// killed is the panic payload block raises when its coroutine is stopped,
// unwinding the process body from inside its blocking primitive.
type killed struct{}

// runProcBody executes the process function, converting a Shutdown-induced
// unwind into a normal return. Any other panic propagates out of the
// coroutine and is re-raised by next in the goroutine that resumed it.
func runProcBody(p *Proc, fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	p.blocked = false
	p.state = "running"
	fn(p)
}

// Shutdown stops every unfinished process coroutine. A simulation that ends
// with blocked processes — daemons after a normal run, application ranks
// after an interrupt, horizon, deadlock or panic — leaves their coroutines
// suspended otherwise, and a long-lived caller running many simulations
// would accumulate their goroutines without bound. stop resumes a suspended
// process with its yield returning false; block then panics out of the
// blocking primitive and runProcBody recovers. A process that never started
// is discarded without running. Shutdown is idempotent, must not be called
// while Run is in flight, and leaves the kernel unusable for further Runs.
func (k *Kernel) Shutdown() {
	if k.running {
		panic("sim: Shutdown during Run")
	}
	for _, pt := range k.parts {
		for _, p := range pt.procs {
			if !p.done {
				p.stop()
			}
		}
	}
}

// step pops and executes the partition's next runnable event. Kernel-context
// callbacks run inline; a valid process wakeup is returned as resume (with
// the wake token already advanced) for the caller to transfer control to.
// processed is false when nothing remains runnable — the queue drained or
// the next event lies at or beyond the window bound. Both runWindow and
// Proc.block drive this one loop body, so every event kind is handled
// identically whichever of them runs the loop.
func (pt *partition) step() (resume *Proc, processed bool) {
	k := pt.k
	if k.intr.Load() {
		return nil, false
	}
	if pt.eq.Len() == 0 {
		return nil, false
	}
	if pt.eq.peek().at >= pt.bound {
		return nil, false
	}
	ev := pt.eq.pop()
	if ev.at < pt.now {
		panic("sim: time reversal")
	}
	pt.now = ev.at
	pt.events++
	if m := k.metrics; m != nil {
		m.Events.Inc()
		m.QueueDepth.Observe(float64(pt.eq.Len()))
	}
	switch {
	case ev.p != nil:
		p := ev.p
		if p.done || !p.blocked || ev.token != p.token {
			return nil, true // stale wakeup
		}
		p.token++ // invalidate other pending wakeups for p
		return p, true
	case ev.fn != nil:
		ev.fn()
	case ev.fn1 != nil:
		ev.fn1(ev.arg)
	}
	return nil, true
}

// runWindow drives the partition until its window [*, bound) is exhausted.
// A resumed process runs until it blocks; if its own event loop found
// another process to wake, it names it in pt.handoff and the driver resumes
// that one next. Control comes back to this loop proper only when a
// process finishes or nothing remains runnable before the bound.
func (pt *partition) runWindow() {
	for {
		p, processed := pt.step()
		if !processed {
			return
		}
		for p != nil {
			pt.handoff = nil
			p.next()
			p = pt.handoff
		}
	}
}

// horizonBound converts the horizon into an exclusive window bound.
func (k *Kernel) horizonBound() Time {
	if k.stopAt == 0 {
		return infTime
	}
	return k.stopAt + 1
}

// Run processes events until the queue drains or the horizon is reached.
// It returns a *DeadlockError if live processes remain blocked with nothing
// scheduled, and nil otherwise.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Kernel.Run is not reentrant")
	}
	k.running = true
	defer func() { k.running = false }()

	if m := k.metrics; m != nil && m.Partitions != nil {
		m.Partitions.Set(float64(len(k.parts)))
	}
	var err error
	if len(k.parts) == 1 {
		err = k.runSerial()
	} else {
		err = k.runPartitioned()
	}
	if err == nil {
		// Final flush: barrier hooks see the fully-drained state exactly
		// once more, whatever path ended the run.
		for _, fn := range k.barriers {
			fn()
		}
	}
	return err
}

// runSerial is the classic single-partition event loop, byte-identical to
// the pre-partitioning kernel: one heap, one clock, one window driver.
func (k *Kernel) runSerial() error {
	pt := k.parts[0]
	pt.bound = k.horizonBound()
	pt.runWindow()
	if k.intr.Load() {
		return ErrCanceled
	}
	if pt.eq.Len() > 0 {
		return nil // horizon reached; events remain beyond it
	}
	return k.deadlockCheck()
}

// runPartitioned is the coordinator loop: compute conservative bounds, run
// every runnable partition's window (on up to workers goroutines), merge
// staged cross-partition events, flush barriers; interleave global events
// whenever they precede every partition's next event.
func (k *Kernel) runPartitioned() error {
	hcap := k.horizonBound()
	runnable := make([]*partition, 0, len(k.parts))
	for {
		if k.intr.Load() {
			return ErrCanceled
		}
		// min1: the smallest partition head — the global simulation front.
		min1 := infTime
		for _, pt := range k.parts {
			if pt.eq.Len() == 0 {
				continue
			}
			if h := pt.eq.peek().at; h < min1 {
				min1 = h
			}
		}
		G := infTime
		if k.gq.Len() > 0 {
			G = k.gq.peek().at
		}
		if min1 == infTime && G == infTime {
			break // drained
		}
		if G <= min1 {
			// Every partition has consumed all events strictly before G:
			// the global event observes a deterministic quiesced state.
			if G >= hcap {
				return k.finishPartitioned(nil) // beyond horizon; events remain
			}
			ev := k.gq.pop()
			if ev.at < k.gnow {
				panic("sim: time reversal (global)")
			}
			k.gnow = ev.at
			k.gevents++
			if m := k.metrics; m != nil {
				m.Events.Inc()
			}
			switch {
			case ev.fn != nil:
				ev.fn()
			case ev.fn1 != nil:
				ev.fn1(ev.arg)
			}
			continue
		}
		if min1 >= hcap {
			return k.finishPartitioned(nil) // horizon reached; events remain
		}
		// This round's window is [min1, min1 + lookahead), further capped
		// by the next global event and the horizon — ONE window shared by
		// every partition, not "min over the other partitions' heads".
		// The per-partition variant is unsound: an event staged during a
		// round can re-activate an idle partition mid-round (a request
		// landing in a blocked partition, whose reply then travels back),
		// and a partition running ahead on a wider private window would
		// observe that reply in its past. A window no wider than the
		// lookahead is immune by construction: every event generated
		// during the round — however many cross-partition hops produced
		// it — lies at or beyond the window's end. A partition whose head
		// is at or beyond the window sits the round out: a lookahead
		// stall.
		bound := min1 + k.lookahead
		if G < bound {
			bound = G
		}
		if hcap < bound {
			bound = hcap
		}
		runnable = runnable[:0]
		stalled := 0
		for _, pt := range k.parts {
			if pt.eq.Len() == 0 {
				continue
			}
			if pt.eq.peek().at < bound {
				pt.bound = bound
				runnable = append(runnable, pt)
			} else {
				stalled++
			}
		}
		if len(runnable) == 0 {
			// Unreachable: the partition holding min1 is always runnable —
			// lookahead > 0, G > min1, and hcap > min1 all hold here.
			panic("sim: lookahead deadlock — no runnable partition")
		}
		if stalled > 0 {
			k.stalls += uint64(stalled)
			if m := k.metrics; m != nil && m.LookaheadStalls != nil {
				m.LookaheadStalls.Add(int64(stalled))
			}
		}
		k.runRound(runnable)
		if k.intr.Load() {
			return ErrCanceled
		}
		// Merge staged cross-partition events, in partition order then
		// staging order — a worker-count-independent total order. Each
		// destination assigns its own fresh sequence numbers.
		for _, pt := range k.parts {
			for i := range pt.outbox {
				x := &pt.outbox[i]
				d := k.parts[x.dst]
				if x.at < d.now {
					panic(fmt.Sprintf("sim: lookahead violation — cross-partition event %d→%d at t=%d is in destination's past (now=%d, lookahead=%d)",
						pt.id, x.dst, x.at, d.now, k.lookahead))
				}
				d.seq++
				d.eq.push(event{at: x.at, seq: d.seq, fn1: x.fn1, arg: x.arg})
				*x = xev{}
			}
			pt.outbox = pt.outbox[:0]
		}
		for _, fn := range k.barriers {
			fn()
		}
	}
	return k.finishPartitioned(k.deadlockCheck())
}

// finishPartitioned advances the global clock to the completion time so
// post-run Now() reports when the simulation ended.
func (k *Kernel) finishPartitioned(err error) error {
	for _, pt := range k.parts {
		if pt.now > k.gnow {
			k.gnow = pt.now
		}
	}
	return err
}

// runRound executes the runnable partitions' windows, on the calling
// goroutine when only one worker is configured, else on a small pool
// claiming partitions from an atomic cursor. Work distribution across
// goroutines is irrelevant to the result: partitions share nothing within
// a round. A panic in a pool worker's window is recovered, every other
// window still runs, and the panic of the lowest-indexed partition is
// re-raised on the calling goroutine — the same one a single worker would
// have raised first.
func (k *Kernel) runRound(runnable []*partition) {
	w := k.workers
	if w > len(runnable) {
		w = len(runnable)
	}
	if w <= 1 {
		for _, pt := range runnable {
			pt.runWindow()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make([]any, len(runnable))
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				if j >= int64(len(runnable)) {
					return
				}
				func() {
					defer func() { panics[j] = recover() }()
					runnable[j].runWindow()
				}()
			}
		}()
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// deadlockCheck reports blocked live processes after the queues drained.
func (k *Kernel) deadlockCheck() error {
	live := 0
	for _, pt := range k.parts {
		live += pt.live
	}
	if live == 0 {
		return nil
	}
	var blocked []string
	var at Time
	for _, pt := range k.parts {
		if pt.now > at {
			at = pt.now
		}
		for _, p := range pt.procs {
			if !p.done && !p.daemon {
				blocked = append(blocked, p.name+": "+p.state)
			}
		}
	}
	return &DeadlockError{Now: at, Blocked: blocked}
}
