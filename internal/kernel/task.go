package kernel

import (
	"encoding/binary"
	"fmt"
	"slices"

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

	// tlb caches translations on the task's node, with their frames' host
	// bytes; flushed on migration (Rebind) and shot down on PTE downgrades
	// of that node. A direct-mapped array TLB (tlb.go): lookups are a mask
	// and a tag compare, flushes invalidate in place.
	tlb taskTLB

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

	// spin is the task's wait-loop state, SpinHook and SpinProbe, nil
	// until the task's first SpinWait, SpinCAS, socket syscall or Attach
	// under time-slicing.
	spin *spinLoop

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
// charged hardware walk. It also returns the frame's host bytes, nil if the
// translation does not hold them (tlbEntry). It must be called inside an
// atomic section so no other thread can downgrade the mapping between this
// check and the data access that follows (the hardware equivalent: stores
// retire before a TLB shootdown completes).
func (t *Task) tryTranslate(va pgtable.VirtAddr, write bool) (mem.PhysAddr, *[mem.PageSize]byte, bool) {
	pva := va &^ (mem.PageSize - 1)
	if fr, host, writable, ok := t.tlb.lookup(pva); ok && (!write || writable) {
		return fr + mem.PhysAddr(va-pva), host, true
	}
	t.Stats.TLBMisses++
	tbl := t.Proc.Tables[t.Node]
	if tbl == nil {
		return 0, nil, false
	}
	pfn, perms, ok := tbl.Walk(t.Port, pva)
	if !ok || !perms.Present || (write && !perms.Write) {
		return 0, nil, false
	}
	fr := mem.PhysAddr(pfn << mem.PageShift)
	host := t.Ctx.Plat.Phys.Frame(fr)
	t.tlb.insert(pva, fr, host, perms.Write)
	return fr + mem.PhysAddr(va-pva), host, true
}

// fillHost gives the translation of va the host bytes of its frame pa once
// the frame has been written (tlbEntry): called after an access that found
// the translation without them.
func (t *Task) fillHost(va pgtable.VirtAddr, pa mem.PhysAddr) {
	if host := t.Ctx.Plat.Phys.Frame(pa); host != nil {
		t.tlb.setHost(va&^(mem.PageSize-1), host)
	}
}

// hostWord returns the offset of the 8-byte word at pa in its frame's host
// bytes if an access of size bytes there can move its data through host: a
// word that does not cross the page.
func hostWord(pa mem.PhysAddr, size int) (int, bool) {
	off := int(pa & (mem.PageSize - 1))
	return off, size == 8 && off <= mem.PageSize-8
}

// access translates va and runs fn(pa) atomically with respect to the
// simulation scheduler, taking OS faults (outside the atomic section) as
// needed.
func (t *Task) access(va pgtable.VirtAddr, write bool, fn func(pa mem.PhysAddr)) error {
	t.Th.BeginAtomic()
	if pa, _, ok := t.tryTranslate(va, write); ok {
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
		wr := int64(0)
		if write {
			wr = 1
		}
		t.emitSpan(trace.KindPageFault, start, uint64(pva), wr)
		if attempt == 3 {
			break
		}
		t.Th.BeginAtomic()
		if pa, _, ok := t.tryTranslate(va, write); ok {
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
// atomic section, with no closure indirection, and a word whose frame the
// translation holds is read straight from its host bytes once the cache is
// charged; the fault path falls back to the shared continuation.
func (t *Task) Load(va pgtable.VirtAddr, size int) (uint64, error) {
	t.Stats.Loads++
	t.Stats.NodeInstructions[t.Node]++
	start := t.Th.Now()
	t.Th.BeginAtomic()
	if pa, host, ok := t.tryTranslate(va, false); ok {
		var out uint64
		if off, word := hostWord(pa, size); word && host != nil {
			t.Port.Charge(cache.Read, pa, 8)
			out = binary.LittleEndian.Uint64(host[off:])
		} else {
			out = t.Port.ReadUint(pa, size)
			if host == nil {
				t.fillHost(va, pa)
			}
		}
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

// Store writes size bytes of v at va (fast path as in Load: the first
// store to a never-written frame materializes it, and the translation takes
// its host bytes).
func (t *Task) Store(va pgtable.VirtAddr, size int, v uint64) error {
	t.Stats.Stores++
	t.Stats.NodeInstructions[t.Node]++
	start := t.Th.Now()
	t.Th.BeginAtomic()
	if pa, host, ok := t.tryTranslate(va, true); ok {
		if off, word := hostWord(pa, size); word && host != nil {
			t.Port.Charge(cache.Write, pa, 8)
			binary.LittleEndian.PutUint64(host[off:], v)
		} else {
			t.Port.WriteUint(pa, size, v)
			if host == nil {
				t.fillHost(va, pa)
			}
		}
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

// ReadBytes copies n bytes starting at va (page-crossing allowed) into a
// fresh slice, never nil.
func (t *Task) ReadBytes(va pgtable.VirtAddr, n int) ([]byte, error) {
	return t.ReadAppend(make([]byte, 0, n), va, n)
}

// ReadAppend appends the n bytes starting at va to dst: one load, charged
// page chunk by page chunk.
func (t *Task) ReadAppend(dst []byte, va pgtable.VirtAddr, n int) ([]byte, error) {
	dst = slices.Grow(dst, n)
	for out := dst[len(dst) : len(dst)+n]; len(out) > 0; {
		chunk := min(mem.PageSize-int(va&(mem.PageSize-1)), len(out))
		if err := t.access(va, false, func(pa mem.PhysAddr) {
			t.Port.ReadInto(pa, out[:chunk])
		}); err != nil {
			return dst, err
		}
		va += pgtable.VirtAddr(chunk)
		out = out[chunk:]
	}
	t.Stats.Loads++
	return dst[:len(dst)+n], nil
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
	t.emitSpan(trace.KindMigrate, start, 0, int64(to)) // MigrateTask rebound t to node to
	return nil
}

// emitSpan traces a span of kind that t started at start and ends now.
func (t *Task) emitSpan(kind trace.Kind, start sim.Cycles, va uint64, arg int64) {
	if tr := t.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(start), Kind: kind,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			VA: va, Arg: arg, Cost: int64(t.Th.Now() - start)})
	}
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
	// The new CPU's TLB is cold for this task: its one TLB drops the old
	// node's translations before its first lookup on node.
	t.tlb.invalidateAll()
}

// Exit terminates the task through the OS personality.
func (t *Task) Exit() error {
	if t.exited {
		return nil
	}
	t.exited = true
	return t.OS.ExitTask(t)
}
