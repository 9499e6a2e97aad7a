package sim

// Proc is a simulated process: its body runs as a runtime coroutine.
// Within a partition, exactly one Proc executes at any instant; a Proc runs
// until it calls a blocking primitive (Hold, Mailbox.Recv, Resource.Use,
// Gate.Pass, Counter.AwaitAtLeast), at which point it runs its partition's
// event loop itself and either continues or yields to the window driver,
// which resumes the next runnable process (see Kernel).
type Proc struct {
	pt      *partition
	id      int // index within the partition, spawn order
	name    string
	next    func() (struct{}, bool) // resume the body until it blocks or ends
	stop    func()                  // end the coroutine; see Kernel.Shutdown
	yield   func(struct{}) bool     // suspend the body; false once stopped
	token   uint64                  // wake token; advanced on every resume
	blocked bool
	done    bool
	daemon  bool   // daemons do not count toward deadlock detection
	state   string // human-readable blocked state, for deadlock reports

	// Reusable waiter slots. A process blocks on at most one primitive at
	// a time, so embedding the waiters here makes registering with a
	// mailbox or counter allocation-free.
	mbw mboxWaiter
	cw  counterWaiter
}

// Daemon reports whether the process was spawned with SpawnDaemon.
func (p *Proc) Daemon() bool { return p.daemon }

// ID returns the process's id (spawn order within its partition).
func (p *Proc) ID() int { return p.id }

// Name returns the process's name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.pt.k }

// Part returns the partition this process runs in (0 on a serial kernel).
func (p *Proc) Part() int { return p.pt.id }

// Now returns the process's partition's current virtual time.
func (p *Proc) Now() Time { return p.pt.now }

// State returns the process's current blocked-state description.
func (p *Proc) State() string { return p.state }

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.done }

// block suspends the process with the given state description until the
// kernel resumes it. Callers must have arranged a wakeup (a scheduled event
// or registration with a mailbox/gate/counter) before calling block.
//
// The blocking process drives the event loop itself: if the next runnable
// event is this process's own wakeup, block returns without a coroutine
// switch; otherwise it names the next process in the partition's handoff
// slot (none when the window is exhausted) and yields to the window driver,
// which resumes that process. Once Kernel.Shutdown has stopped the
// coroutine, yield returns false and block unwinds the body with a killed
// panic, recovered in runProcBody.
func (p *Proc) block(state string) {
	p.state = state
	p.blocked = true
	for {
		q, processed := p.pt.step()
		if q == p {
			break // own wakeup: keep running
		}
		if q != nil || !processed {
			p.pt.handoff = q
			if !p.yield(struct{}{}) {
				panic(killed{})
			}
			break
		}
	}
	p.blocked = false
	p.state = "running"
}

// Hold advances the process's virtual time by d, modelling computation or a
// fixed delay. Negative durations are treated as zero.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		d = 0
	}
	p.pt.scheduleWake(p.pt.now+d, p)
	p.block("hold")
}

// HoldUntil blocks until virtual time t (no-op if t is in the past).
func (p *Proc) HoldUntil(t Time) {
	if t <= p.pt.now {
		return
	}
	p.pt.scheduleWake(t, p)
	p.block("holdUntil")
}
