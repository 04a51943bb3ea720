// Package sim provides the deterministic discrete-event simulation core on
// which the whole Stramash reproduction runs.
//
// The engine models simulated time in CPU cycles. Every simulated thread of
// execution owns a local clock that advances as the thread consumes cycles
// (instructions, cache hits and misses, message latencies). The engine
// co-schedules threads conservatively: the runnable thread with the smallest
// local clock always runs next, so the interleaving of cross-thread
// interactions (atomics, IPIs, futex wake-ups) is a deterministic function of
// the simulated timeline, never of host goroutine scheduling.
//
// On the host a thread is a coroutine of Run, not a goroutine the Go
// scheduler places: granting a segment is one direct switch into the thread
// and one back (Thread.resume / Thread.suspend), and a yielding thread that
// is still the minimum keeps running with no switch at all. Both are
// invisible in simulated time; DESIGN.md §6 has the measured costs.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"

	"repro/internal/trace"
)

// Cycles is a duration or point in simulated time, measured in CPU cycles of
// the node the thread runs on. Cycle counts from nodes with different clock
// rates are comparable only after conversion through a Clock.
type Cycles int64

// Clock converts between cycles and wall time for one node's frequency.
type Clock struct {
	// Hz is the node frequency in cycles per second.
	Hz int64
}

// Nanos returns the wall-clock nanoseconds corresponding to c cycles.
func (k Clock) Nanos(c Cycles) int64 {
	return int64(float64(c) / float64(k.Hz) * 1e9)
}

// Micros returns the wall-clock microseconds corresponding to c cycles.
func (k Clock) Micros(c Cycles) float64 {
	return float64(c) / float64(k.Hz) * 1e6
}

// Millis returns the wall-clock milliseconds corresponding to c cycles.
func (k Clock) Millis(c Cycles) float64 {
	return float64(c) / float64(k.Hz) * 1e3
}

// FromMicros returns the cycle count corresponding to us microseconds.
func (k Clock) FromMicros(us float64) Cycles {
	return Cycles(us * float64(k.Hz) / 1e6)
}

// FromNanos returns the cycle count corresponding to ns nanoseconds.
func (k Clock) FromNanos(ns float64) Cycles {
	return Cycles(ns * float64(k.Hz) / 1e9)
}

// ThreadID identifies a simulated thread within an Engine.
type ThreadID int

// threadState is the lifecycle state of a simulated thread.
type threadState int

const (
	stateRunnable threadState = iota
	stateRunning
	stateBlocked
	stateParked
	stateDone
)

func (s threadState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	}
	return fmt.Sprintf("threadState(%d)", int(s))
}

// Thread is a simulated thread of execution. The body function runs as a
// runtime coroutine (iter.Pull) of the goroutine running Engine.Run: resume
// switches the host CPU straight into the body, suspend switches it straight
// back, and neither goes through the Go scheduler. A coroutine only ever
// runs while its resumer waits, so at most one simulated thread executes at
// a time and the simulation stays deterministic.
type Thread struct {
	ID   ThreadID
	Name string

	eng   *Engine
	state threadState
	now   Cycles // local clock
	// quantum counts cycles consumed since the thread last yielded; when it
	// exceeds the engine quantum the thread voluntarily yields so that other
	// threads with smaller clocks can catch up.
	sinceYield Cycles

	// next and yield are the two halves of the thread's coroutine (see
	// resume and suspend). yield is set when the body first runs.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// atomicDepth suppresses scheduler yields while > 0 (BeginAtomic).
	atomicDepth int

	// preempt, when non-nil, runs at every yield point after the thread
	// regains the execution token. A software scheduler built above the
	// engine (the kernel's CPU scheduler) installs it to implement
	// time-slicing: the hook may Block the thread to hand its simulated
	// CPU to another task. It never fires inside an atomic section
	// (YieldPoint returns early there) and never fires reentrantly.
	preempt    func()
	inPreempt  bool
	preemptOff int

	// wakePending records a Wake that arrived while the thread was not
	// blocked (e.g. between a futex enqueue and the Block call). The next
	// Block consumes it and returns immediately — the classic "wake beats
	// sleep" race resolved the way real futexes do, by allowing spurious
	// wake-ups that callers' retry loops absorb.
	wakePending bool

	blockReason string
	err         error

	// segKey is the thread's clock at the moment its current run segment was
	// granted (or, for a segment the thread continued into without a switch,
	// began). closeSegment charges each segment the cycles since its key.
	segKey Cycles

	// wake is the parked thread's replay (Park); nil when not parked. due
	// is the clock its park ends by itself at, never when only a Disturb
	// ends it.
	wake func(from Cycles) (skipped int64, at Cycles)
	due  Cycles

	// spin is a parked loop's schedule (ParkSpin) and spinAt the yield
	// point its last wake resumed it at; spinWake is its Park wake, bound
	// on first use so that parking allocates nothing. spinHook describes
	// the preemption hook at the loop's yield points (SetSpinHook).
	spin     Spin
	spinAt   int64
	spinWake func(from Cycles) (int64, Cycles)
	spinHook SpinHook
}

// resume grants the thread the execution token: Run switches into the
// thread's coroutine and gets the host CPU back when the thread next
// suspends or its body returns.
func (t *Thread) resume() { t.next() }

// suspend hands the execution token back to Run and returns when Run next
// resumes the thread. Every thread-side park (yield, block) goes through
// here.
func (t *Thread) suspend() { t.yield(struct{}{}) }

// Now returns the thread's local simulated time.
func (t *Thread) Now() Cycles { return t.now }

// Advance consumes d cycles of simulated time on this thread. If the thread
// has consumed more than the engine quantum since it last yielded, it hands
// control back to the scheduler so lower-clocked threads can run — unless
// the thread is inside an atomic section.
func (t *Thread) Advance(d Cycles) {
	if d < 0 {
		panic(fmt.Sprintf("sim: thread %q advanced by negative duration %d", t.Name, d))
	}
	t.now += d
	t.sinceYield += d
	if t.sinceYield >= t.eng.Quantum && t.atomicDepth == 0 {
		t.YieldPoint()
	}
}

// YieldHeadroom returns the cycle budget the thread has before its next
// quantum yield: any sequence of Advance calls whose durations sum to
// strictly less than it yields nowhere, so one Advance of the sum is the
// same simulated history. Inside an atomic section nothing yields and the
// budget is unbounded. Read-only.
func (t *Thread) YieldHeadroom() Cycles {
	if t.atomicDepth > 0 {
		return math.MaxInt64
	}
	return t.eng.Quantum - t.sinceYield
}

// BeginAtomic enters a section during which the thread will not yield to
// the scheduler: used to model operations that are indivisible on real
// hardware, such as a store together with the permission check that
// preceded it (a PTE downgrade cannot slide between the two, because TLB
// shootdowns complete before the downgrade proceeds). Sections nest.
func (t *Thread) BeginAtomic() { t.atomicDepth++ }

// EndAtomic leaves an atomic section, yielding if the quantum expired
// meanwhile.
func (t *Thread) EndAtomic() {
	if t.atomicDepth == 0 {
		panic(fmt.Sprintf("sim: thread %q EndAtomic without BeginAtomic", t.Name))
	}
	t.atomicDepth--
	if t.atomicDepth == 0 && t.sinceYield >= t.eng.Quantum {
		t.YieldPoint()
	}
}

// AdvanceTo moves the thread's local clock forward to at least when. It is a
// no-op if the clock is already past when. Used when an interaction with
// another thread (a message, a wake-up) imposes a happens-before edge.
func (t *Thread) AdvanceTo(when Cycles) {
	if when > t.now {
		t.Advance(when - t.now)
	}
}

// YieldPoint is an explicit scheduling point: the thread's segment ends and
// the runnable thread with the smallest (clock, ID) runs next. Simulated
// code must call this (directly or via Advance) around synchronization
// operations so that cross-thread orderings follow simulated time. Inside
// an atomic section it is a no-op.
//
// The thread applies the rule itself: when it is still the minimum it
// closes the segment in place — exactly what Run does after a resume
// returns — and runs on, with no host switch at all. Nothing observable
// distinguishes that from suspending and being picked again: Run emits a
// switch event only when the picked thread differs from the last.
func (t *Thread) YieldPoint() {
	if t.atomicDepth > 0 {
		return
	}
	t.sinceYield = 0
	t.state = stateRunnable
	e := t.eng
	if next := e.pickNext(); next == t {
		e.closeSegment(t)
		e.Stats.SelfContinues++
		t.segKey = t.now
	} else {
		e.picked = next // nothing runs between here and Run's next pick
		t.suspend()
	}
	t.state = stateRunning
	if t.Preemptible() {
		t.runPreempt()
	}
}

// runPreempt runs the preemption hook at a yield point the thread has just
// regained the token at. Callers test Preemptible first, which inlines.
func (t *Thread) runPreempt() {
	t.inPreempt = true
	t.preempt()
	t.inPreempt = false
}

// Preemptible reports whether a yield point would run the preemption hook
// now: one is installed, preemption is not disabled and the hook is not
// running.
func (t *Thread) Preemptible() bool {
	return t.preempt != nil && !t.inPreempt && t.preemptOff == 0
}

// never is a parked thread's due clock when only a Disturb ends its park.
const never Cycles = math.MaxInt64

// Park is a YieldPoint after which the thread leaves scheduling until
// Disturb, or until its own yield point at clock due: the segment ends
// here as if another thread were ahead, and the thread is not picked again
// until something disturbs it or (due, ID) is the minimum key. It is for
// wait loops whose skipped iterations are pure — they only add to counters
// and redo what the last iteration did — so running them later, in closed
// form, is the same history (DESIGN.md §6, "Spin parking"). due is the
// clock of the loop's first yield point that is not pure, or never.
//
// The loop's yield points from this one on are numbered 0, 1, 2, … with
// non-decreasing clocks. When Disturb ends the park, wake runs on the
// disturbing thread with from, the earliest clock a yield point of this
// thread may have and still order after the disturbing segment; when the
// park ends at due, wake runs with from = due, as if the thread's own
// yield point there disturbed it. wake applies the skipped iterations'
// effects and returns how many yield points come before the first one at
// or after from, and that one's clock. The engine closes the skipped
// points' segments (SerialSegments, SerialCycles; Replayed counts them)
// and makes the thread runnable at that clock. When it is next granted,
// Park returns after the preemption hook, as YieldPoint would at that
// point; the hooks of the skipped points are wake's to account. Park
// panics inside an atomic section.
func (t *Thread) Park(reason string, due Cycles, wake func(from Cycles) (skipped int64, at Cycles)) {
	if t.atomicDepth > 0 {
		panic(fmt.Sprintf("sim: thread %q parked inside an atomic section", t.Name))
	}
	t.sinceYield = 0
	t.wake, t.due = wake, due
	t.blockReason = reason
	t.state = stateParked
	e := t.eng
	var next *Thread
	if due != never {
		e.Stats.TimedParks++
		next = e.pickNext()
	}
	if next == t { // its own due clock is the minimum: keep the token, as YieldPoint would
		e.closeSegment(t)
		e.Stats.SelfContinues++
		t.unpark(due)
		t.segKey = t.now
	} else {
		e.picked = next // nil: Run scans
		t.suspend()
	}
	t.state = stateRunning
	if t.Preemptible() {
		t.runPreempt()
	}
}

// Disturb ends the thread's Park, if it is parked. It runs inside the
// segment whose action changes what the parked loop would observe, or
// would cost, before that action takes effect. The parked thread resumes at
// its first yield point ordered after that segment by the key pickNext
// uses, (segment start clock, thread ID): a yield point at clock c of
// thread x comes after segment (s, y) when c > s, or c == s and x > y. Had
// the thread been spinning, that is exactly where it would be waiting
// when the segment ran: its earlier yield points were each the minimum
// before the segment was granted. That rests on grants never going back
// in time, which holds because no thread becomes runnable behind the
// running one: every Wake is at or after the waker's clock, and every
// Spawn during a run at or after the spawner's. With the engine idle the
// thread resumes where it parked.
func (t *Thread) Disturb() {
	if t.state != stateParked || t.wake == nil {
		return
	}
	t.unpark(t.eng.after(t))
}

// unpark ends t's Park at its first yield point at or after from.
func (t *Thread) unpark(from Cycles) {
	t.eng.replay(t, from)
	t.state = stateRunnable
	t.blockReason = ""
}

// after returns the earliest clock a yield point of parked thread t may
// have and still order after the current segment (the last one, once Run
// has nothing left to grant).
func (e *Engine) after(t *Thread) Cycles {
	from := t.now
	if c := e.cur; c != nil && c != t { // t's own last segment ended where it parked
		from = c.segKey
		if t.ID < c.ID {
			from++
		}
	}
	return from
}

// replay brings parked thread t to its first yield point at or after
// from.
func (e *Engine) replay(t *Thread, from Cycles) {
	wake := t.wake
	t.wake, t.due = nil, never
	n, at := wake(from)
	e.Stats.SerialSegments += n
	e.Stats.SerialCycles += at - t.now
	e.Stats.Replayed += n
	t.now = at
}

// DisablePreempt suppresses the preemption hook (not the yield itself)
// until a matching EnablePreempt. Sections nest. Kernel code uses it the
// way real kernels disable preemption while holding a spinlock: a task
// must not be descheduled while it holds a simulated kernel lock, or while
// it sits in the window between a futex enqueue and its sleep, where a
// preemption could consume the wake-up destined for the futex Block.
func (t *Thread) DisablePreempt() { t.preemptOff++ }

// EnablePreempt leaves a DisablePreempt section.
func (t *Thread) EnablePreempt() {
	if t.preemptOff == 0 {
		panic(fmt.Sprintf("sim: thread %q EnablePreempt without DisablePreempt", t.Name))
	}
	t.preemptOff--
}

// SetPreempt installs (or, with nil, removes) the thread's preemption
// hook. The hook runs at every yield point outside atomic sections, on the
// thread's own coroutine while it holds the execution token, so it may
// consult simulated state and call Block to give up the CPU. Installing a
// hook that never blocks and charges no cycles leaves the simulated
// timeline untouched. It clears the SpinHook that described the previous
// hook.
func (t *Thread) SetPreempt(h func()) {
	t.preempt = h
	t.spinHook = nil
}

// Block parks the thread until another thread calls Engine.Wake. If a Wake
// already arrived since the thread last ran (wake-beats-sleep), Block
// returns immediately. The reason string is reported by deadlock
// diagnostics.
func (t *Thread) Block(reason string) {
	if t.wakePending {
		t.wakePending = false
		return
	}
	if tr := t.eng.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.now), Kind: trace.KindThreadBlock,
			Tid: int32(t.ID), Node: -1, Name: reason})
	}
	t.blockReason = reason
	t.sinceYield = 0
	t.state = stateBlocked
	t.suspend()
	t.state = stateRunning
	t.blockReason = ""
}

// Engine owns a set of simulated threads and runs them deterministically.
type Engine struct {
	// Quantum is the maximum number of cycles a thread may consume before the
	// scheduler re-evaluates which thread has the smallest clock. Smaller
	// quanta interleave more finely (and run slower). The default suits
	// workloads that synchronize through explicit YieldPoints.
	Quantum Cycles

	// Tracer, when non-nil, receives thread lifecycle events (spawn,
	// context switch, block, wake, done). Emitting never advances any
	// simulated clock, so tracing cannot perturb the schedule.
	Tracer trace.Tracer

	// Stats accumulates host-side driver counters across runs; see
	// EngineStats.
	Stats EngineStats

	threads []*Thread
	lastRun ThreadID
	running bool
	// picked is the thread a yielding thread found ahead of itself; Run
	// grants it next instead of scanning again.
	picked *Thread
	// cur is the thread holding the execution token during Run (the last
	// one granted), nil while the engine is idle.
	cur *Thread
}

// NewEngine returns an engine with the default scheduling quantum.
func NewEngine() *Engine {
	return &Engine{Quantum: 20000, lastRun: -1}
}

// Spawn creates a new simulated thread executing body. The thread's local
// clock starts at start cycles (usually the spawner's current time). Spawn
// may be called before Run or from inside a running thread.
func (e *Engine) Spawn(name string, start Cycles, body func(t *Thread)) *Thread {
	t := &Thread{
		ID:    ThreadID(len(e.threads)),
		Name:  name,
		eng:   e,
		state: stateRunnable,
		now:   start,
	}
	e.threads = append(e.threads, t)
	if tr := e.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(start), Kind: trace.KindThreadSpawn,
			Tid: int32(t.ID), Node: -1, Name: name})
	}
	// Returning from the iterator is the thread's final suspend. The stop
	// function is dropped on purpose: a thread that never finishes (deadlock,
	// or a run that ended at another thread's error) stays parked inside its
	// body, which is never unwound.
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.state = stateRunning
		defer func() {
			if r := recover(); r != nil {
				t.err = fmt.Errorf("sim: thread %q panicked: %v", t.Name, r)
			}
			t.state = stateDone
			if tr := e.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: int64(t.now), Kind: trace.KindThreadDone,
					Tid: int32(t.ID), Node: -1, Name: t.Name})
			}
		}()
		body(t)
	})
	return t
}

// Wake marks a blocked thread runnable, advancing its clock to at least when
// (the simulated time at which the wake-up reaches it). Waking a thread that
// is not blocked leaves a pending wake that the thread's next Block consumes
// immediately — so a wake can never be lost between a waiter's enqueue and
// its sleep, exactly like the kernel futex path.
func (e *Engine) Wake(t *Thread, when Cycles) {
	t.Disturb()
	if t.now < when {
		t.now = when
	}
	if tr := e.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.now), Kind: trace.KindThreadWake,
			Tid: int32(t.ID), Node: -1, Name: t.Name})
	}
	if t.state == stateBlocked {
		t.state = stateRunnable
	} else if t.state != stateDone {
		t.wakePending = true
	}
}

// Run drives the simulation until every thread has finished. It returns the
// first error produced by a panicking thread, or a deadlock error if all
// remaining threads are blocked.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: engine already running")
	}
	e.running = true
	defer func() { e.running, e.cur = false, nil }()

	for {
		next := e.picked
		e.picked = nil
		if next == nil {
			next = e.pickNext()
		}
		if next == nil {
			e.settleParked()
			if e.allDone() {
				return e.firstErr()
			}
			return e.deadlockErr()
		}
		if next.state == stateParked { // picked at its due clock
			next.unpark(next.due)
		}
		if tr := e.Tracer; tr != nil && next.ID != e.lastRun {
			tr.Emit(trace.Event{Cycle: int64(next.now), Kind: trace.KindThreadSwitch,
				Tid: int32(next.ID), Node: -1, Name: next.Name})
		}
		e.lastRun = next.ID
		e.cur = next
		next.segKey = next.now
		next.resume()
		e.closeSegment(next)
		if next.err != nil {
			e.settleParked()
			return next.err
		}
	}
}

// closeSegment accounts the segment t has just ended: the one that began at
// t.segKey.
func (e *Engine) closeSegment(t *Thread) {
	e.Stats.SerialSegments++
	e.Stats.SerialCycles += t.now - t.segKey
}

// pickNext returns the runnable thread with the smallest local clock,
// breaking ties by thread ID for determinism. A parked thread with a due
// clock competes at that clock: it is the yield point its park ends at.
func (e *Engine) pickNext() *Thread {
	var best *Thread
	var at Cycles
	for _, t := range e.threads {
		c := t.now
		if t.state != stateRunnable {
			if t.state != stateParked || t.due == never {
				continue
			}
			c = t.due
		}
		if best == nil || c < at { // ties: the lower ID came first and stays
			best, at = t, c
		}
	}
	return best
}

// settleParked brings every parked thread to its first yield point after
// the last segment, where the loop it parked in would be waiting when the
// run ends, and leaves it parked for good. Run ends with parked threads
// only on an error: a thread's panic, or the deadlock error when nothing
// is left to disturb them. A thread whose park has a due clock is never
// among the deadlocked: pickNext grants it there.
func (e *Engine) settleParked() {
	for _, t := range e.threads {
		if t.state == stateParked && t.wake != nil {
			e.replay(t, e.after(t))
		}
	}
}

func (e *Engine) allDone() bool {
	for _, t := range e.threads {
		if t.state != stateDone {
			return false
		}
	}
	return true
}

func (e *Engine) firstErr() error {
	for _, t := range e.threads {
		if t.err != nil {
			return t.err
		}
	}
	return nil
}

func (e *Engine) deadlockErr() error {
	var stuck []string
	for _, t := range e.threads {
		if t.state == stateBlocked || t.state == stateParked {
			stuck = append(stuck, fmt.Sprintf("%s(%s)", t.Name, t.blockReason))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock, blocked threads: %v", stuck)
}

// MaxTime returns the largest local clock across all threads; with the
// engine idle this is the simulation's end time. A parked thread's clock is
// where it parked until something disturbs it, so mid-run this reads only
// the threads that are not parked correctly.
func (e *Engine) MaxTime() Cycles {
	var m Cycles
	for _, t := range e.threads {
		if t.now > m {
			m = t.now
		}
	}
	return m
}
