package kernel

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the kernel's CPU scheduler: the layer that turns
// machine.Config.Cores from dead configuration into simulated CPUs with run
// queues. Every kernel task is attached to one CPU (node, core); the
// scheduler decides when the task occupies that CPU, parks it on the CPU's
// run queue when the CPU is busy, and routes futex sleep/wake through
// dequeue/enqueue transitions instead of ad-hoc thread parking.
//
// Determinism: the scheduler adds no randomness. Preemption fires only at
// existing sim.Thread yield points (via the preempt hook), quantum expiry is
// measured in retired instructions (a deterministic counter), and run queues
// are strict FIFO. A CPU handoff is expressed as Engine.Wake at the
// releaser's clock, so the waiter's local time jumps to the release time —
// that jump IS the simulated cost of time-sharing a core; the scheduler
// itself charges zero extra cycles.

// TaskState is the scheduler-visible lifecycle state of a task.
type TaskState uint8

const (
	// TaskRunning: the task occupies its CPU.
	TaskRunning TaskState = iota
	// TaskReady: the task is runnable, parked on its CPU's run queue.
	TaskReady
	// TaskSleeping: the task is blocked (futex, join) and off its CPU.
	TaskSleeping
	// TaskExited: the task detached from the scheduler.
	TaskExited
)

func (s TaskState) String() string {
	switch s {
	case TaskRunning:
		return "running"
	case TaskReady:
		return "ready"
	case TaskSleeping:
		return "sleeping"
	case TaskExited:
		return "exited"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// SchedPolicy selects how CPUs arbitrate between runnable tasks.
type SchedPolicy uint8

const (
	// SchedShared is the historical (pre-scheduler) behaviour: CPUs track
	// occupancy and utilization but never contend — any number of tasks may
	// run on one core concurrently, exactly as when tasks were bare
	// sim.Threads. It charges zero cycles and installs no preemption hook,
	// so with this policy every existing experiment is cycle-for-cycle
	// identical to the pre-scheduler build.
	SchedShared SchedPolicy = iota
	// SchedTimeSlice is the strict SMP policy: at most one task occupies a
	// CPU at a time, excess runnable tasks wait on a FIFO run queue, and
	// round-robin preemption fires when a task has retired Quantum
	// instructions since dispatch (with a cycle backstop for spin loops
	// that burn cycles without retiring instructions).
	SchedTimeSlice
)

func (p SchedPolicy) String() string {
	switch p {
	case SchedShared:
		return "shared"
	case SchedTimeSlice:
		return "timeslice"
	}
	return fmt.Sprintf("SchedPolicy(%d)", int(p))
}

// DefaultSchedQuantum is the round-robin slice in retired instructions.
const DefaultSchedQuantum int64 = 50_000

// backstopFactor bounds a slice in cycles: a task is also preempted once it
// has held the CPU for Quantum*backstopFactor cycles, so spin-wait loops
// (which advance cycles but retire no instructions) cannot starve the run
// queue.
const backstopFactor = 4

// CPU is one simulated processor: the unit the scheduler multiplexes tasks
// onto. Exported counters feed per-core utilization reporting.
type CPU struct {
	Node mem.NodeID
	Core int

	// Dispatches counts times a task started (or resumed) running here.
	Dispatches int64
	// Preemptions counts quantum-expiry context switches.
	Preemptions int64
	// Busy accumulates cycles during which at least one task occupied the
	// CPU (under SchedShared, overlapping occupancies accumulate
	// independently, so Busy can exceed wall-clock time — it is a demand
	// measure, not a duty cycle).
	Busy sim.Cycles

	cur     *Task   // strict policy: current occupant (nil if idle)
	running int     // occupancy count (shared policy allows >1)
	queue   []*Task // strict policy: FIFO run queue of ready tasks
	// freeAt is when the last occupant released the CPU (strict policy): a
	// task whose local clock is behind it (e.g. a freshly cloned thread)
	// cannot occupy the core earlier than that in simulated time.
	freeAt sim.Cycles
}

// Running returns the number of tasks currently occupying the CPU.
func (c *CPU) Running() int { return c.running }

// Scheduler owns the per-core run queues of one machine. It is built by the
// machine layer after the kernels boot and is shared by both nodes — the
// fused CPU list of §6.6: one scheduler sees every core of every ISA, so
// cross-node migration is an ordinary dequeue-on-origin/enqueue-on-remote
// pair rather than a cross-scheduler handoff.
type Scheduler struct {
	Ctx     *Context
	Policy  SchedPolicy
	Quantum int64 // round-robin slice in retired instructions

	cpus [2][]*CPU
}

// NewScheduler builds the CPU set from the platform's cache topology (one
// CPU per configured core per node). quantum <= 0 selects the default.
func NewScheduler(ctx *Context, policy SchedPolicy, quantum int64) *Scheduler {
	if quantum <= 0 {
		quantum = DefaultSchedQuantum
	}
	s := &Scheduler{Ctx: ctx, Policy: policy, Quantum: quantum}
	for n := 0; n < 2; n++ {
		cores := ctx.Plat.Cfg.Cache.Nodes[n].Cores
		if cores < 1 {
			cores = 1
		}
		s.cpus[n] = make([]*CPU, cores)
		for c := 0; c < cores; c++ {
			s.cpus[n][c] = &CPU{Node: mem.NodeID(n), Core: c}
		}
	}
	return s
}

// Cores returns the number of CPUs on node.
func (s *Scheduler) Cores(node mem.NodeID) int { return len(s.cpus[node]) }

// CPUOf returns the CPU at (node, core).
func (s *Scheduler) CPUOf(node mem.NodeID, core int) *CPU { return s.cpus[node][core] }

// Attach places t on its CPU (t.Node, t.Core) and waits (strict policy)
// until the CPU is free. It runs on t's own simulated thread. Under the
// strict policy it also installs the preemption hook that implements
// round-robin time-slicing.
func (s *Scheduler) Attach(t *Task) {
	if t.Core < 0 || t.Core >= len(s.cpus[t.Node]) {
		panic(fmt.Sprintf("kernel: task %q attached to %v core %d (node has %d cores)",
			t.Name, t.Node, t.Core, len(s.cpus[t.Node])))
	}
	t.Sched = s
	if s.Policy == SchedTimeSlice {
		t.Th.SetPreempt(func() { s.maybePreempt(t) })
		t.Th.SetSpinHook(t.spinLoop())
	}
	s.acquire(t)
}

// Detach removes t from the scheduler: the task's CPU is released (handing
// it to the next queued task) and the preemption hook is removed. Safe to
// call more than once.
func (s *Scheduler) Detach(t *Task) {
	if t.Sched != s || t.State == TaskExited {
		return
	}
	s.release(t)
	t.State = TaskExited
	t.Th.SetPreempt(nil)
}

// Sleep parks t off its CPU until Awaken: the CPU is released (dispatching
// the next queued task), the thread blocks under reason, and on wake the
// task re-acquires its CPU — queueing behind whoever took it meanwhile.
// This is the single blocking primitive the futex and join paths use.
func (s *Scheduler) Sleep(t *Task, reason string) {
	start := t.Th.Now()
	t.State = TaskSleeping
	s.release(t)
	t.Th.Block(reason)
	s.acquire(t)
	if tr := s.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(start), Kind: trace.KindSchedSleep,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			Name: reason, Cost: int64(t.Th.Now() - start)})
	}
}

// Awaken makes a sleeping task runnable at simulated time when. It runs on
// the waker's thread; the sleeper re-acquires its CPU on its own thread
// (see Sleep). Waking a task that has not yet blocked leaves a pending
// wake, exactly as Engine.Wake does.
func (s *Scheduler) Awaken(t *Task, when sim.Cycles) {
	s.Ctx.Plat.Engine.Wake(t.Th, when)
}

// Migrated is called by Task.Rebind when a task changes node: the origin
// CPU is released and the destination CPU acquired, so cross-node
// migration is literally dequeue-on-origin/enqueue-on-remote. The caller
// has already updated t.Node; from is the origin CPU recorded at dispatch.
func (s *Scheduler) migrated(t *Task) {
	if t.State != TaskRunning {
		return
	}
	s.releaseCPU(t, t.cpu)
	if t.Core >= len(s.cpus[t.Node]) {
		// Destination node has fewer cores; fold deterministically.
		t.Core = t.Core % len(s.cpus[t.Node])
	}
	s.acquire(t)
}

// acquire takes t's CPU, waiting on the run queue while it is busy (strict
// policy only). Runs on t's own thread.
func (s *Scheduler) acquire(t *Task) {
	cpu := s.cpus[t.Node][t.Core]
	if s.Policy == SchedTimeSlice {
		if cpu.cur != nil && cpu.cur != t {
			// With a task queued, a parked occupant's preemption hook
			// acts at its slice's expiry: it re-parks with that bound (if
			// one was queued already, the disturb is spurious, which is
			// exact).
			cpu.cur.Th.Disturb()
			cpu.queue = append(cpu.queue, t)
			t.State = TaskReady
			if tr := s.Ctx.Plat.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: int64(t.Th.Now()), Kind: trace.KindSchedEnqueue,
					Node: int8(cpu.Node), Core: int16(cpu.Core), Tid: int32(t.Th.ID),
					Arg: int64(len(cpu.queue))})
			}
			t.Th.Block("cpu")
			// The only wake that can reach a queued task is the handoff
			// from release (futex wakes target sleeping tasks, which are
			// never queued; the futex path runs preempt-disabled through
			// its enqueue-to-sleep window). Anything else is a protocol
			// bug, better caught than absorbed.
			if cpu.cur != t {
				panic(fmt.Sprintf("kernel: task %q woke on %v core %d run queue without holding the CPU",
					t.Name, cpu.Node, cpu.Core))
			}
		} else {
			cpu.cur = t
			// The core is not available before its previous occupant left:
			// an acquirer whose local clock is behind the last release (a
			// freshly cloned task, or a sleeper woken early) waits in
			// simulated time until the core is actually free. The claim
			// above comes first, so nothing slips in during the wait.
			t.Th.AdvanceTo(cpu.freeAt)
		}
	}
	t.cpu = cpu
	cpu.running++
	cpu.Dispatches++
	t.State = TaskRunning
	t.dispatchAt = t.Th.Now()
	t.sliceStart = t.Th.Now()
	t.sliceInstr = t.instrTotal()
	if tr := s.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Th.Now()), Kind: trace.KindSchedDispatch,
			Node: int8(cpu.Node), Core: int16(cpu.Core), Tid: int32(t.Th.ID)})
	}
}

// release gives up t's CPU and, under the strict policy, hands it directly
// to the head of the run queue (waking it at the releaser's clock — the
// waiter's time jump to that instant is the queueing delay).
func (s *Scheduler) release(t *Task) {
	s.releaseCPU(t, t.cpu)
}

func (s *Scheduler) releaseCPU(t *Task, cpu *CPU) {
	if cpu == nil {
		return
	}
	t.cpu = nil
	cpu.running--
	cpu.Busy += t.Th.Now() - t.dispatchAt
	if s.Policy != SchedTimeSlice {
		return
	}
	if cpu.cur != t {
		panic(fmt.Sprintf("kernel: task %q released %v core %d it does not occupy",
			t.Name, cpu.Node, cpu.Core))
	}
	if t.Th.Now() > cpu.freeAt {
		cpu.freeAt = t.Th.Now()
	}
	if len(cpu.queue) > 0 {
		next := cpu.queue[0]
		copy(cpu.queue, cpu.queue[1:])
		cpu.queue = cpu.queue[:len(cpu.queue)-1]
		cpu.cur = next
		s.Ctx.Plat.Engine.Wake(next.Th, t.Th.Now())
	} else {
		cpu.cur = nil
	}
}

// quantumFor returns the round-robin slice for t: the machine quantum
// scaled by the owning tenant's CPU share (Budget.CPUShare, in percent).
// Root tasks take the unscaled quantum through a single nil check, so
// single-tenant machines time-slice cycle-for-cycle as before — this
// scaling is how a noisy tenant's run-queue pressure is bounded: its
// tasks hold a contended CPU for a fraction of the slice a full-share
// tenant's tasks get.
func (s *Scheduler) quantumFor(t *Task) int64 {
	ten := t.Proc.Ten
	if ten == nil {
		return s.Quantum
	}
	q := s.Quantum * int64(ten.Share()) / 100
	if q < 1 {
		q = 1
	}
	return q
}

// replaySlices applies maybePreempt's empty-queue branch at yield points
// 0..n-1 of t's parked wait loop sp, parked with instr0 instructions
// retired, in closed form: the slice restarts at the first yield point
// where t has retired its quantum of instructions, or held the CPU for the
// cycle backstop, since the slice began.
func (s *Scheduler) replaySlices(t *Task, sp sim.Spin, instr0, n int64) {
	for j := int64(0); ; j++ {
		j = max(j, s.sliceEnd(t, sp, instr0))
		if j >= n {
			return
		}
		t.sliceInstr, t.sliceStart = instr0+sp.Instr(j), sp.Clock(j)
	}
}

// sliceEnd returns the first yield point of t's parked wait loop sp,
// parked with instr0 instructions retired, at which t's current slice has
// expired: t has retired its quantum of instructions, or held the CPU for
// the cycle backstop, since the slice began (maybePreempt's test).
func (s *Scheduler) sliceEnd(t *Task, sp sim.Spin, instr0 int64) int64 {
	quantum := s.quantumFor(t)
	return min(sp.FirstWith(t.sliceInstr+quantum-instr0),
		sp.FirstAt(t.sliceStart+sim.Cycles(quantum*backstopFactor)))
}

// maybePreempt is the preemption hook installed on every strictly scheduled
// task's thread: at each yield point it checks whether the current slice
// expired — the task's quantum in retired instructions, or the cycle
// backstop for instruction-free spin loops — and whether anyone is
// waiting; if both, the task round-robins to the back of the run queue.
func (s *Scheduler) maybePreempt(t *Task) {
	if t.State != TaskRunning || t.cpu == nil {
		return
	}
	cpu := t.cpu
	quantum := s.quantumFor(t)
	if len(cpu.queue) == 0 {
		// No competition: extend the slice in place (a real tick would
		// also leave the sole runnable task on the CPU).
		if t.instrTotal()-t.sliceInstr >= quantum ||
			t.Th.Now()-t.sliceStart >= sim.Cycles(quantum*backstopFactor) {
			t.sliceInstr = t.instrTotal()
			t.sliceStart = t.Th.Now()
		}
		return
	}
	if t.instrTotal()-t.sliceInstr < quantum &&
		t.Th.Now()-t.sliceStart < sim.Cycles(quantum*backstopFactor) {
		return
	}
	cpu.Preemptions++
	start := t.Th.Now()
	s.release(t)
	s.acquire(t)
	if tr := s.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(start), Kind: trace.KindSchedPreempt,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			Cost: int64(t.Th.Now() - start)})
	}
}
