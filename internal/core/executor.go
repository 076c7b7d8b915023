package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor steps independent units in parallel and joins them: the one
// fan-out primitive behind every parallel model — the engine's shards, the
// island and hybrid demes, the cellular grid partitions and the agent
// system's processor agents.
//
// It has a fixed width W. Executor 0 is the calling goroutine; W-1
// persistent workers, spawned at the first Run, join it through a
// spin-then-park step barrier (stepBarrier): the caller publishes a step
// by bumping an atomic epoch, and the workers — and the caller waiting for
// the last of them — poll an atomic for a bounded window before they park
// on a wake channel. A generation of a 10x10 job shop at Pop 80 is only
// ~50-100 us of work, so two futex wake-ups per step cost about what a
// second worker saves; the poll catches the common case without them.
// Every poll calls runtime.Gosched, so a waiting executor hands its CPU to
// any runnable goroutine instead of burning it while executors outnumber
// the CPUs. Under GOMAXPROCS=1 nobody can publish while a waiter polls, so
// waiters park at once.
//
// Width 1 spawns nothing. Run and For must not be called concurrently, nor
// from inside a function the same Executor runs; a unit may drive an
// Executor of its own (a hybrid deme stepping its partitioned grid).
type Executor struct {
	width int
	fn    func(exec int) // the running step, published before release
	bar   *stepBarrier   // the spawned workers' barrier; nil when none run

	// For's index count, body and shared claim cursor.
	n      int64
	body   func(i int)
	cursor atomic.Int64
}

// NewExecutor returns an executor of the given width (at least 1).
func NewExecutor(width int) *Executor {
	return &Executor{width: max(width, 1)}
}

// Width resolves a Workers setting into the width of an executor that
// steps units independent units: workers, or GOMAXPROCS when workers is 0
// or negative, and never more than units.
func Width(workers, units int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, units)
}

// Run calls fn(exec) for every exec in [0, width), fn(0) on the calling
// goroutine, and returns once every call has returned.
func (x *Executor) Run(fn func(exec int)) {
	if x.width == 1 {
		fn(0)
		return
	}
	x.start()
	b := x.bar
	x.fn = fn
	b.pending.Store(int32(x.width - 1))
	ep := b.release()
	fn(0)
	b.master.await(ep, b.spins, func() bool { return b.pending.Load() == 0 })
}

// For calls body(i) for every i in [0, n) and returns once every call has
// returned. The executors claim indices from one cursor, so a slow index
// never idles the others.
func (x *Executor) For(n int, body func(i int)) {
	if x.width == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	x.n, x.body = int64(n), body
	x.cursor.Store(0)
	x.Run(x.claimLoop)
}

// claimLoop is one executor's share of a For: claim and run indices until
// the cursor passes n.
func (x *Executor) claimLoop(int) {
	for i := x.cursor.Add(1) - 1; i < x.n; i = x.cursor.Add(1) - 1 {
		x.body(int(i))
	}
}

// Close stops the workers and returns once they have exited: it marks
// their barrier quit and releases it, so polling workers see the quit on
// their next poll and parked ones are woken to see it. The next Run
// respawns them on a fresh barrier. Close is idempotent and must not be
// called concurrently with Run or For.
func (x *Executor) Close() {
	b := x.bar
	if b == nil {
		return
	}
	b.quit.Store(true)
	b.release()
	b.exited.Wait()
	x.bar = nil
}

// start lazily spawns the width-1 persistent workers. Between steps they
// wait on the step barrier, polling its epoch and then parking.
func (x *Executor) start() {
	if x.bar != nil {
		return
	}
	b := &stepBarrier{workers: make([]parker, x.width-1)}
	if runtime.GOMAXPROCS(0) > 1 {
		b.spins = spinPolls
	}
	b.master.wake = make(chan struct{}, 1)
	for k := range b.workers {
		p := &b.workers[k]
		p.wake = make(chan struct{}, 1)
		exec := k + 1
		b.exited.Add(1)
		go func() {
			defer b.exited.Done()
			// The caller bumps the epoch once per step and only after
			// every worker has finished the last one, so epoch ep follows
			// ep-1 with no skips; Close's bump is the last.
			for ep := uint64(1); ; ep++ {
				p.await(ep, b.spins, func() bool { return b.epoch.Load() == ep })
				if b.quit.Load() {
					return
				}
				x.fn(exec)
				if b.pending.Add(-1) == 0 {
					b.master.signal(ep)
				}
			}
		}()
	}
	x.bar = b
}

// spinPolls bounds the barrier's poll window: the number of atomic polls,
// each followed by runtime.Gosched, before a waiter parks. A poll takes
// ~120 ns with nothing else runnable (2-vCPU x86-64 host), so 200 polls
// span ~24 us — more than the master's between-step tail plus one shard,
// the gaps a waiter normally sees — and longer when other goroutines are
// runnable, since each poll yields to them.
const spinPolls = 200

// parker is one waiter's park slot; parked holds the epoch its waiter is
// parked for, or 0. A waiter that exhausts its polls stores its epoch and
// re-checks its condition; the signaller, after publishing the condition,
// claims the slot with CompareAndSwap(epoch, 0) and sends one token.
// Whichever side wins the swap decides whether a token is in flight, so no
// wake-up is lost and none is left behind. The epoch tag stops a late
// signal from waking a waiter parked for a later step: the last worker of
// step E may still be inside signal when the master, having already polled
// pending to zero, runs step E+1 and parks.
type parker struct {
	parked atomic.Uint64
	wake   chan struct{} // buffered: the signaller never blocks
}

// await returns once done reports true: it polls up to spins times, then
// parks until signal(epoch) hands it a token.
func (p *parker) await(epoch uint64, spins int, done func() bool) {
	for i := 0; i < spins; i++ {
		if done() {
			return
		}
		runtime.Gosched()
	}
	p.parked.Store(epoch)
	if done() && p.parked.CompareAndSwap(epoch, 0) {
		return
	}
	<-p.wake
}

// signal wakes the waiter if it is parked for epoch. Call it after
// publishing the condition the waiter polls.
func (p *parker) signal(epoch uint64) {
	if p.parked.CompareAndSwap(epoch, 0) {
		p.wake <- struct{}{}
	}
}

// stepBarrier synchronises the master (the Run caller) with one spawn of
// worker goroutines. Each Run bumps epoch to release the workers and waits
// for pending to drop to zero; the worker that takes it there signals the
// master. Close sets quit before its final bump, so the workers see it and
// exit, and waits on exited for them; a respawn builds a fresh barrier.
type stepBarrier struct {
	epoch   atomic.Uint64
	pending atomic.Int32
	quit    atomic.Bool
	spins   int // spinPolls, or 0 when GOMAXPROCS is 1 and nobody could publish mid-poll
	master  parker
	workers []parker
	exited  sync.WaitGroup
}

// release publishes a new epoch, wakes every worker parked for it and
// returns it.
func (b *stepBarrier) release() uint64 {
	ep := b.epoch.Add(1)
	for k := range b.workers {
		b.workers[k].signal(ep)
	}
	return ep
}
