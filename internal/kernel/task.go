package kernel

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// TaskStats counts per-task events for the evaluation breakdowns.
type TaskStats struct {
	Loads, Stores   int64
	Instructions    int64
	ReadFaults      int64
	WriteFaults     int64
	Migrations      int64
	TLBMisses       int64
	FutexWaits      int64
	FutexWakes      int64
	MigrationCycles sim.Cycles
	FaultCycles     sim.Cycles
	ComputeCycles   sim.Cycles
	MemAccessCycles sim.Cycles

	// File I/O volume through the read/write syscalls (bytes).
	FileReadBytes  int64
	FileWriteBytes int64

	// Socket I/O volume through the send/recv syscalls (bytes).
	SockSendBytes int64
	SockRecvBytes int64

	// Per-node attribution, the data the perf+icount tool reads (§7.3):
	// retired instructions (compute + memory ops) and residency cycles on
	// each ISA.
	NodeInstructions [2]int64
	NodeCycles       [2]sim.Cycles
}

// Task is one schedulable thread of a process, bound at any instant to one
// node (one ISA). Workloads are written against its Load/Store/Compute/
// Migrate interface; every call moves real bytes and charges simulated
// cycles through the cache model and, when faults or migrations occur,
// through the OS personality.
type Task struct {
	Name string
	Proc *Process
	OS   OS
	Ctx  *Context

	Node mem.NodeID
	Core int
	Th   *sim.Thread
	Port *hw.Port

	// Sched is the kernel CPU scheduler the task is attached to, nil for
	// bare tasks (unit tests, setup threads). State is the scheduler's view
	// of the task; cpu is the CPU it currently occupies.
	Sched *Scheduler
	State TaskState
	cpu   *CPU

	// dispatchAt is when the task last started occupying its CPU (feeds
	// utilization); sliceStart/sliceInstr anchor the round-robin quantum.
	dispatchAt sim.Cycles
	sliceStart sim.Cycles
	sliceInstr int64

	// tlb caches translations per node; flushed on migration and shot down
	// on PTE downgrades. Direct-mapped array TLBs (tlb.go): lookups are a
	// mask and a tag compare, flushes invalidate in place.
	tlb [2]taskTLB

	// CodeWin models the instruction footprint of the running phase.
	CodeWin *hw.CodeWindow

	// fds is the task's open-file descriptor table, nil until first use.
	fds *vfs.FDTable

	// futexOn points at the futex this task is currently enqueued on, and
	// sockSleeping marks it asleep inside sockWait. RevokeCap consults them
	// to cancel a mid-blocking waiter of a revoked capability. capCancel is
	// the cancellation flag RevokeCap sets; the blocking syscall converts
	// it into a Revoked *CapError when it resumes (invariant 13).
	futexOn      *Futex
	sockSleeping bool
	capCancel    bool

	Stats  TaskStats
	exited bool

	statsBase  TaskStats
	timedStart sim.Cycles
	bindStart  sim.Cycles
}

// BeginTimed marks the start of the benchmark's timed region (NPB times
// only the iteration loop, not data initialization). TimedStats and
// TimedCycles report deltas from this point.
func (t *Task) BeginTimed() {
	t.statsBase = t.Stats
	t.timedStart = t.Th.Now()
}

// TimedCycles returns cycles elapsed since BeginTimed (or task start).
func (t *Task) TimedCycles() sim.Cycles { return t.Th.Now() - t.timedStart }

// TimedStats returns the counter deltas since BeginTimed.
func (t *Task) TimedStats() TaskStats {
	d := t.Stats
	d.Loads -= t.statsBase.Loads
	d.Stores -= t.statsBase.Stores
	d.Instructions -= t.statsBase.Instructions
	d.ReadFaults -= t.statsBase.ReadFaults
	d.WriteFaults -= t.statsBase.WriteFaults
	d.Migrations -= t.statsBase.Migrations
	d.TLBMisses -= t.statsBase.TLBMisses
	d.FutexWaits -= t.statsBase.FutexWaits
	d.FutexWakes -= t.statsBase.FutexWakes
	d.MigrationCycles -= t.statsBase.MigrationCycles
	d.FaultCycles -= t.statsBase.FaultCycles
	d.ComputeCycles -= t.statsBase.ComputeCycles
	d.MemAccessCycles -= t.statsBase.MemAccessCycles
	d.FileReadBytes -= t.statsBase.FileReadBytes
	d.FileWriteBytes -= t.statsBase.FileWriteBytes
	d.SockSendBytes -= t.statsBase.SockSendBytes
	d.SockRecvBytes -= t.statsBase.SockRecvBytes
	for n := 0; n < 2; n++ {
		d.NodeInstructions[n] -= t.statsBase.NodeInstructions[n]
		d.NodeCycles[n] -= t.statsBase.NodeCycles[n]
	}
	return d
}

// NewTask binds a simulated thread to a process under an OS personality.
// The task starts on the process's origin node, core 0.
func NewTask(name string, proc *Process, os OS, ctx *Context, th *sim.Thread) *Task {
	return NewTaskOn(name, proc, os, ctx, th, 0)
}

// NewTaskOn is NewTask with explicit core placement on the origin node.
func NewTaskOn(name string, proc *Process, os OS, ctx *Context, th *sim.Thread, core int) *Task {
	t := &Task{
		Name: name,
		Proc: proc,
		OS:   os,
		Ctx:  ctx,
		Node: proc.Origin,
		Core: core,
		Th:   th,
	}
	t.Port = ctx.Plat.NewPort(t.Node, t.Core, th)
	t.CodeWin = hw.NewCodeWindow(0x1000, 8<<10)
	t.bindStart = th.Now()
	proc.Tasks = append(proc.Tasks, t)
	return t
}

// instrTotal is the task's retired-instruction count across both nodes, the
// deterministic counter the scheduler's round-robin quantum is measured in.
func (t *Task) instrTotal() int64 {
	return t.Stats.NodeInstructions[0] + t.Stats.NodeInstructions[1]
}

// Sleep parks the task until Awaken. Scheduled tasks go through the kernel
// scheduler (releasing their CPU while asleep and re-acquiring it on wake);
// bare tasks fall back to parking the simulated thread directly.
func (t *Task) Sleep(reason string) {
	if t.Sched != nil {
		t.Sched.Sleep(t, reason)
		return
	}
	t.Th.Block(reason)
}

// Awaken makes a sleeping task runnable at simulated time when (the moment
// the wake-up reaches it). Runs on the waker's thread.
func (t *Task) Awaken(when sim.Cycles) {
	if t.Sched != nil {
		t.Sched.Awaken(t, when)
		return
	}
	t.Ctx.Plat.Engine.Wake(t.Th, when)
}

// accountResidency closes the current node-residency interval.
func (t *Task) accountResidency() {
	t.Stats.NodeCycles[t.Node] += t.Th.Now() - t.bindStart
	t.bindStart = t.Th.Now()
}

// NodeTime returns the cycles the task has spent bound to node so far.
func (t *Task) NodeTime(node mem.NodeID) sim.Cycles {
	c := t.Stats.NodeCycles[node]
	if node == t.Node {
		c += t.Th.Now() - t.bindStart
	}
	return c
}

// tryTranslate resolves va without taking faults: TLB first, then a
// charged hardware walk. It must be called inside an atomic section so no
// other thread can downgrade the mapping between this check and the data
// access that follows (the hardware equivalent: stores retire before a TLB
// shootdown completes).
func (t *Task) tryTranslate(va pgtable.VirtAddr, write bool) (mem.PhysAddr, bool) {
	pva := va &^ (mem.PageSize - 1)
	if fr, writable, ok := t.tlb[t.Node].lookup(pva); ok && (!write || writable) {
		return fr + mem.PhysAddr(va-pva), true
	}
	t.Stats.TLBMisses++
	tbl := t.Proc.Tables[t.Node]
	if tbl == nil {
		return 0, false
	}
	pfn, perms, ok := tbl.Walk(t.Port, pva)
	if !ok || !perms.Present || (write && !perms.Write) {
		return 0, false
	}
	fr := mem.PhysAddr(pfn << mem.PageShift)
	t.tlb[t.Node].insert(pva, fr, perms.Write)
	return fr + mem.PhysAddr(va-pva), true
}

// access translates va and runs fn(pa) atomically with respect to the
// simulation scheduler, taking OS faults (outside the atomic section) as
// needed.
func (t *Task) access(va pgtable.VirtAddr, write bool, fn func(pa mem.PhysAddr)) error {
	t.Th.BeginAtomic()
	if pa, ok := t.tryTranslate(va, write); ok {
		fn(pa)
		t.Th.EndAtomic()
		return nil
	}
	t.Th.EndAtomic()
	return t.accessAfterMiss(va, write, fn)
}

// accessAfterMiss is the fault-handling continuation of access: the
// caller's first translation attempt has already failed (and charged its
// walk), so the sequence of walks and faults — try, fault, try, fault … up
// to four of each — is exactly the one the pre-split loop performed.
func (t *Task) accessAfterMiss(va pgtable.VirtAddr, write bool, fn func(pa mem.PhysAddr)) error {
	pva := va &^ (mem.PageSize - 1)
	for attempt := 0; attempt < 4; attempt++ {
		start := t.Th.Now()
		if write {
			t.Stats.WriteFaults++
		} else {
			t.Stats.ReadFaults++
		}
		if err := t.OS.HandleFault(t, pva, write); err != nil {
			return fmt.Errorf("kernel: fault at %#x (write=%v) on %v: %w", va, write, t.Node, err)
		}
		t.Stats.FaultCycles += t.Th.Now() - start
		if tr := t.Ctx.Plat.Tracer; tr != nil {
			wr := int64(0)
			if write {
				wr = 1
			}
			tr.Emit(trace.Event{Cycle: int64(start), Kind: trace.KindPageFault,
				Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
				VA: uint64(pva), Arg: wr, Cost: int64(t.Th.Now() - start)})
		}
		if attempt == 3 {
			break
		}
		t.Th.BeginAtomic()
		if pa, ok := t.tryTranslate(va, write); ok {
			fn(pa)
			t.Th.EndAtomic()
			return nil
		}
		t.Th.EndAtomic()
	}
	return fmt.Errorf("kernel: fault loop at %#x on %v", va, t.Node)
}

// translate resolves va for an access, invoking the OS fault path on
// misses. Callers that separate translation from the data access (Fetch)
// use it; data paths use access for atomicity.
func (t *Task) translate(va pgtable.VirtAddr, write bool) (mem.PhysAddr, error) {
	var out mem.PhysAddr
	err := t.access(va, write, func(pa mem.PhysAddr) { out = pa })
	return out, err
}

// Load reads size bytes at va (size <= 8 returns the value). The TLB-hit
// case is specialized: translation and data read run directly in the
// atomic section, with no closure indirection; the fault path falls back
// to the shared continuation.
func (t *Task) Load(va pgtable.VirtAddr, size int) (uint64, error) {
	t.Stats.Loads++
	t.Stats.NodeInstructions[t.Node]++
	start := t.Th.Now()
	t.Th.BeginAtomic()
	if pa, ok := t.tryTranslate(va, false); ok {
		out := t.Port.ReadUint(pa, size)
		t.Th.EndAtomic()
		t.Stats.MemAccessCycles += t.Th.Now() - start
		return out, nil
	}
	t.Th.EndAtomic()
	var out uint64
	err := t.accessAfterMiss(va, false, func(pa mem.PhysAddr) {
		out = t.Port.ReadUint(pa, size)
	})
	t.Stats.MemAccessCycles += t.Th.Now() - start
	return out, err
}

// Store writes size bytes of v at va (fast path as in Load).
func (t *Task) Store(va pgtable.VirtAddr, size int, v uint64) error {
	t.Stats.Stores++
	t.Stats.NodeInstructions[t.Node]++
	start := t.Th.Now()
	t.Th.BeginAtomic()
	if pa, ok := t.tryTranslate(va, true); ok {
		t.Port.WriteUint(pa, size, v)
		t.Th.EndAtomic()
		t.Stats.MemAccessCycles += t.Th.Now() - start
		return nil
	}
	t.Th.EndAtomic()
	err := t.accessAfterMiss(va, true, func(pa mem.PhysAddr) {
		t.Port.WriteUint(pa, size, v)
	})
	t.Stats.MemAccessCycles += t.Th.Now() - start
	return err
}

// ReadBytes copies n bytes starting at va (page-crossing allowed).
func (t *Task) ReadBytes(va pgtable.VirtAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	for dst := out; len(dst) > 0; {
		chunk := min(mem.PageSize-int(va&(mem.PageSize-1)), len(dst))
		if err := t.access(va, false, func(pa mem.PhysAddr) {
			t.Port.ReadInto(pa, dst[:chunk])
		}); err != nil {
			return nil, err
		}
		va += pgtable.VirtAddr(chunk)
		dst = dst[chunk:]
	}
	t.Stats.Loads++
	return out, nil
}

// WriteBytes stores data starting at va (page-crossing allowed).
func (t *Task) WriteBytes(va pgtable.VirtAddr, data []byte) error {
	for len(data) > 0 {
		chunk := mem.PageSize - int(va&(mem.PageSize-1))
		if chunk > len(data) {
			chunk = len(data)
		}
		if err := t.access(va, true, func(pa mem.PhysAddr) {
			t.Port.Write(pa, data[:chunk])
		}); err != nil {
			return err
		}
		va += pgtable.VirtAddr(chunk)
		data = data[chunk:]
	}
	t.Stats.Stores++
	return nil
}

// CAS performs a cross-ISA atomic compare-and-swap on the 64-bit word at
// va (x86 LOCK CMPXCHG / Arm LSE CAS, §6.5). The explicit yield point
// before the access gives competing threads a fair shot at the line while
// keeping check-and-swap indivisible.
func (t *Task) CAS(va pgtable.VirtAddr, old, new uint64) (uint64, bool, error) {
	t.Th.YieldPoint()
	var prev uint64
	var ok bool
	err := t.access(va, true, func(pa mem.PhysAddr) {
		prev, ok = t.Port.CompareAndSwap64(pa, old, new)
	})
	return prev, ok, err
}

// Compute executes n ALU instructions at the node's fixed non-memory IPC.
func (t *Task) Compute(n int64) {
	start := t.Th.Now()
	t.Port.Compute(n, t.CodeWin)
	t.Stats.Instructions += n
	t.Stats.NodeInstructions[t.Node] += n
	t.Stats.ComputeCycles += t.Th.Now() - start
}

// Migrate moves the task to the other node through the OS personality's
// migration service, then rebinds the hardware context.
func (t *Task) Migrate(to mem.NodeID) error {
	if to == t.Node {
		return nil
	}
	start := t.Th.Now()
	if err := t.OS.MigrateTask(t, to); err != nil {
		return err
	}
	t.Stats.Migrations++
	t.Stats.MigrationCycles += t.Th.Now() - start
	if tr := t.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(start), Kind: trace.KindMigrate,
			Node: int8(to), Core: int16(t.Core), Tid: int32(t.Th.ID),
			Arg: int64(to), Cost: int64(t.Th.Now() - start)})
	}
	return nil
}

// Rebind switches the task's hardware binding to node (called by OS
// personalities at the end of their migration protocol). For scheduled
// tasks the move is a dequeue from the origin CPU and an enqueue on the
// destination CPU — the run-queue expression of cross-node migration.
func (t *Task) Rebind(node mem.NodeID) {
	t.accountResidency()
	t.Node = node
	if t.Sched != nil {
		t.Sched.migrated(t)
	}
	t.Port = t.Ctx.Plat.NewPort(node, t.Core, t.Th)
	// The new CPU's TLB is cold for this task.
	t.tlb[node].invalidateAll()
}

// InvalidateTLB drops the cached translation of va on this task.
func (t *Task) InvalidateTLB(node mem.NodeID, va pgtable.VirtAddr) {
	t.tlb[node].invalidate(va &^ (mem.PageSize - 1))
}

// Exit terminates the task through the OS personality.
func (t *Task) Exit() error {
	if t.exited {
		return nil
	}
	t.exited = true
	return t.OS.ExitTask(t)
}

// Exited reports whether Exit has run.
func (t *Task) Exited() bool { return t.exited }

// Fetch charges an instruction fetch (used by the ISA bus adapter).
func (t *Task) Fetch(va pgtable.VirtAddr, n int) {
	// Code pages are mapped like data; translate without write.
	pa, err := t.translate(va, false)
	if err != nil {
		// Fetch faults surface on the next data access; charge a miss.
		t.Th.Advance(100)
		return
	}
	t.Port.Fetch(pa, n)
}

// Bus adapts the task to the isa.Bus interface so compiled programs can
// execute on it with full translation and timing.
type Bus struct {
	T *Task
	// OnMigrate, when set, handles MIGRATE instructions; otherwise they
	// are ignored.
	OnMigrate func(id int)
	// Err records the first access error (the ISA layer has no error path
	// for memory operations, matching hardware, where these are traps).
	Err error
}

// Fetch implements isa.Bus.
func (b *Bus) Fetch(va uint64, n int) { b.T.Fetch(pgtable.VirtAddr(va), n) }

// Load implements isa.Bus.
func (b *Bus) Load(va uint64, n int) uint64 {
	v, err := b.T.Load(pgtable.VirtAddr(va), n)
	if err != nil && b.Err == nil {
		b.Err = err
	}
	return v
}

// Store implements isa.Bus.
func (b *Bus) Store(va uint64, n int, v uint64) {
	if err := b.T.Store(pgtable.VirtAddr(va), n, v); err != nil && b.Err == nil {
		b.Err = err
	}
}

// CAS implements isa.Bus.
func (b *Bus) CAS(va uint64, old, new uint64) (uint64, bool) {
	prev, ok, err := b.T.CAS(pgtable.VirtAddr(va), old, new)
	if err != nil && b.Err == nil {
		b.Err = err
	}
	return prev, ok
}

// Migrate implements isa.Bus.
func (b *Bus) Migrate(id int) {
	if b.OnMigrate != nil {
		b.OnMigrate(id)
	}
}

// Touch charges a single cache access of the given kind without data
// movement; used by OS code modelling structure walks.
func (t *Task) Touch(kind cache.Kind, pa mem.PhysAddr, size int) {
	if t.Ctx.Plat.Tracer != nil {
		t.Ctx.Plat.Caches.TraceContext(int64(t.Th.Now()), int32(t.Th.ID))
	}
	lat := t.Ctx.Plat.Caches.Access(t.Node, t.Core, kind, pa, size)
	t.Th.Advance(lat)
}
